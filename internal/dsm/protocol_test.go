package dsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// protoCluster builds a cluster under the given protocol with hosts
// 0..procs-1 active and one region of npages pages.
func protoCluster(t *testing.T, proto ProtocolKind, procs, npages int) (*Cluster, *Region) {
	t.Helper()
	c, err := New(Config{MaxHosts: procs + 1, Adaptive: true, Protocol: proto})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 1; i < procs; i++ {
		if _, err := c.Join(HostID(i)); err != nil {
			t.Fatalf("Join(%d): %v", i, err)
		}
	}
	r, err := c.Alloc("proto.region", npages*page.Size)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return c, r
}

func eachProtocol(t *testing.T, f func(t *testing.T, proto ProtocolKind)) {
	for _, proto := range []ProtocolKind{Tmk, HLRC, Hybrid} {
		t.Run(proto.String(), func(t *testing.T) { f(t, proto) })
	}
}

// TestParseProtocol exercises the flag parser both ways.
func TestParseProtocol(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ProtocolKind
		ok   bool
	}{
		{"", Tmk, true}, {"tmk", Tmk, true}, {"hlrc", HLRC, true}, {"hybrid", Hybrid, true},
		{"treadmarks", Tmk, false}, {"HLRC", Tmk, false}, {"adaptive", Tmk, false},
	} {
		got, err := ParseProtocol(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseProtocol(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, k := range []ProtocolKind{Tmk, HLRC, Hybrid} {
		rt, err := ParseProtocol(k.String())
		if err != nil || rt != k {
			t.Errorf("ParseProtocol(%v.String()) = (%v, %v), want identity", k, rt, err)
		}
	}
}

// TestHLRCHomesRoundRobin asserts the round-robin home assignment
// across the hosts active at allocation time.
func TestHLRCHomesRoundRobin(t *testing.T) {
	c, r := protoCluster(t, HLRC, 3, 6)
	for p := 0; p < r.NPages; p++ {
		want := HostID(p % 3)
		if got := c.PageOwner(r.ID, p); got != want {
			t.Errorf("page %d homed at %d, want %d", p, got, want)
		}
		if !c.Host(want).HasCopy(r.ID, p) {
			t.Errorf("home %d of page %d holds no copy", want, p)
		}
	}
}

// TestProtocolBarrierPropagation: a barrier makes each writer's block
// visible to every other host under both protocols.
func TestProtocolBarrierPropagation(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		c, r := protoCluster(t, proto, 3, 3)
		clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
		active := []HostID{0, 1, 2}

		// Each host writes one full page.
		for i, id := range active {
			buf := bytes.Repeat([]byte{byte(i + 1)}, page.Size)
			writeBytes(c.Host(id), r.ID, i*page.Size, buf, clks[i])
		}
		c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})

		for _, id := range active {
			got := make([]byte, 3*page.Size)
			readBytes(c.Host(id), r.ID, 0, got, clks[id])
			for i := 0; i < 3; i++ {
				if got[i*page.Size] != byte(i+1) || got[(i+1)*page.Size-1] != byte(i+1) {
					t.Fatalf("host %d sees page %d = %d..%d, want %d",
						id, i, got[i*page.Size], got[(i+1)*page.Size-1], i+1)
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestProtocolLockMigration: lock-protected updates migrate host to
// host and every update survives, under both protocols; under HLRC the
// traffic is home flushes and page pulls, never diff fetches.
func TestProtocolLockMigration(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		c, r := protoCluster(t, proto, 3, 1)
		clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
		active := []HostID{0, 1, 2}

		for round := 0; round < 3; round++ {
			for i, id := range active {
				h := c.Host(id)
				c.AcquireLock(7, h, clks[i])
				got := make([]byte, 8)
				readBytes(h, r.ID, 0, got, clks[i])
				got[0]++
				writeBytes(h, r.ID, 0, got, clks[i])
				c.ReleaseLock(7, h, clks[i])
			}
		}
		// Read back under the lock: an unsynchronised read may
		// legitimately see a stale copy under LRC.
		c.AcquireLock(7, c.Host(0), clks[0])
		got := make([]byte, 8)
		readBytes(c.Host(0), r.ID, 0, got, clks[0])
		c.ReleaseLock(7, c.Host(0), clks[0])
		if got[0] != 9 {
			t.Fatalf("counter = %d after 9 lock-protected increments, want 9", got[0])
		}
		st := c.Stats().Snapshot()
		switch proto {
		case HLRC:
			if st.DiffFetches != 0 {
				t.Errorf("hlrc performed %d diff fetches, want 0", st.DiffFetches)
			}
			if st.HomeFlushes == 0 {
				t.Errorf("hlrc recorded no home flushes")
			}
		case Tmk:
			if st.HomeFlushes != 0 {
				t.Errorf("tmk recorded %d home flushes, want 0", st.HomeFlushes)
			}
		case Hybrid:
			// A lock-passed record whose writer rotates is the migratory
			// class by definition; the census must say so.
			if st.PagesMigratory == 0 {
				t.Errorf("hybrid census tagged no page migratory: %+v", st)
			}
		}
	})
}

// TestGCUnderAdaptationKeepsUnflushedWrites is the regression guard
// for adaptation-point GC: a host that leaves while holding an open
// interval (writes made since the last barrier, never flushed) must
// not lose those updates — ForceGC closes the interval before the
// collection, and the leave hands the data off. The result must be
// identical under both protocols.
func TestGCUnderAdaptationKeepsUnflushedWrites(t *testing.T) {
	results := map[ProtocolKind][]byte{}
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		c, r := protoCluster(t, proto, 3, 3)
		clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
		active := []HostID{0, 1, 2}

		// Establish shared state at a barrier.
		for i, id := range active {
			buf := bytes.Repeat([]byte{byte(10 * (i + 1))}, page.Size)
			writeBytes(c.Host(id), r.ID, i*page.Size, buf, clks[i])
		}
		c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})

		// Host 2 writes mid-interval — dirty pages, unflushed diffs —
		// including a page it does not own, then leaves at an
		// adaptation point: GC first, then the leave.
		writeBytes(c.Host(2), r.ID, 2*page.Size, bytes.Repeat([]byte{222}, 64), clks[2])
		writeBytes(c.Host(2), r.ID, 0, []byte{99, 98, 97, 96, 95, 94, 93, 92}, clks[2])

		c.ForceGC(active)
		if _, err := c.NormalLeave(2, LeaveViaMaster); err != nil {
			t.Fatalf("NormalLeave: %v", err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}

		// The survivors must see every one of host 2's writes.
		got := make([]byte, 3*page.Size)
		readBytes(c.Host(0), r.ID, 0, got, clks[0])
		if got[2*page.Size] != 222 || got[2*page.Size+63] != 222 {
			t.Fatalf("%v: host 2's unflushed page-2 writes lost: got %d,%d",
				proto, got[2*page.Size], got[2*page.Size+63])
		}
		if got[0] != 99 || got[7] != 92 {
			t.Fatalf("%v: host 2's unflushed page-0 writes lost: got %d,%d", proto, got[0], got[7])
		}
		results[proto] = got
	})
	if !bytes.Equal(results[Tmk], results[HLRC]) || !bytes.Equal(results[Tmk], results[Hybrid]) {
		t.Fatal("protocols disagree on post-adaptation contents")
	}
}

// TestHLRCLeaveRehomesRoundRobin: after a leave, the departed host's
// pages live round-robin on the remaining team regardless of the
// configured (via-master) strategy, and a joiner faults them in.
func TestHLRCLeaveRehomesRoundRobin(t *testing.T) {
	c, r := protoCluster(t, HLRC, 3, 6)
	clk := simtime.NewClock(0)
	active := []HostID{0, 1, 2}

	writeBytes(c.Host(0), r.ID, 0, bytes.Repeat([]byte{1}, 6*page.Size), clk)
	c.Barrier(active, []simtime.Seconds{clk.Now(), clk.Now(), clk.Now()})

	c.ForceGC(active)
	if _, err := c.NormalLeave(1, LeaveViaMaster); err != nil {
		t.Fatalf("NormalLeave: %v", err)
	}
	for p := 0; p < r.NPages; p++ {
		owner := c.PageOwner(r.ID, p)
		if owner == 1 {
			t.Errorf("page %d still homed at the departed host", p)
		}
		if !c.Host(owner).HasCopy(r.ID, p) {
			t.Errorf("new home %d of page %d holds no copy", owner, p)
		}
	}
	// Pages 1 and 4 were homed at host 1; via-master would have homed
	// both at 0. Round-robin spreads them across {0, 2}.
	homes := map[HostID]int{}
	for _, p := range []int{1, 4} {
		homes[c.PageOwner(r.ID, p)]++
	}
	if len(homes) != 2 {
		t.Errorf("departed host's pages homed at %v, want spread across both survivors", homes)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHLRCGCIsTrivial: under HLRC a forced GC moves no bytes and
// charges no time.
func TestHLRCGCIsTrivial(t *testing.T) {
	c, r := protoCluster(t, HLRC, 3, 3)
	clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
	active := []HostID{0, 1, 2}
	for i, id := range active {
		writeBytes(c.Host(id), r.ID, i*page.Size, bytes.Repeat([]byte{7}, 128), clks[i])
	}
	c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})

	before := c.Fabric().Snapshot()
	elapsed := c.ForceGC(active)
	moved := c.Fabric().Snapshot().Sub(before).TotalBytes()
	if elapsed != 0 || moved != 0 {
		t.Fatalf("hlrc GC cost %v and %d bytes, want 0 and 0", elapsed, moved)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWordRacePanicNamesRegionAndOffset asserts the satellite fix: the
// sub-word race panic names the region and the conflicting word's byte
// offset, not just the page.
func TestWordRacePanicNamesRegionAndOffset(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		c, err := New(Config{MaxHosts: 2, Adaptive: true, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Join(1); err != nil {
			t.Fatal(err)
		}
		r, err := c.Alloc("conflict.region", 2*page.Size)
		if err != nil {
			t.Fatal(err)
		}
		clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)
		writeBytes(c.Host(0), r.ID, 0, make([]byte, 2*page.Size), clk0)
		c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

		// Conflicting sub-word writes within word 2 of page 1: bytes
		// [16,20) and [20,24) at region offset page.Size+16.
		writeBytes(c.Host(0), r.ID, page.Size+16, []byte{1, 2, 3, 4}, clk0)
		writeBytes(c.Host(1), r.ID, page.Size+20, []byte{5, 6, 7, 8}, clk1)

		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("conflicting sub-word writes did not panic")
			}
			msg, ok := v.(string)
			if !ok {
				t.Fatalf("panic value %T, want string", v)
			}
			wantOff := fmt.Sprintf("byte offset %d", page.Size+16)
			for _, frag := range []string{"conflict.region", wantOff, "word 2", "page 1"} {
				if !strings.Contains(msg, frag) {
					t.Errorf("panic message missing %q:\n%s", frag, msg)
				}
			}
		}()
		c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})
	})
}

// policyFootprint is everything the per-page policy of the home-based
// core can leave behind: the classifier census, home moves, elisions,
// window fetches and retained-window storage.
func policyFootprint(c *Cluster) [10]int64 {
	st := c.Stats().Snapshot()
	return [10]int64{
		st.PagesSingleWriter, st.PagesProducerConsumer, st.PagesMigratory, st.PagesFalselyShared,
		st.HomeMigrations, st.HomeMigrationBytes, st.ElidedTwins, st.ElidedDiffs,
		st.DiffFetches, int64(c.proto.storage()),
	}
}

// TestHLRCIsTheNullPolicy drives the home-based core through every
// path on which hybrid's policy acts — sole and concurrent barrier
// closes with a dominant writer, dense lock-release flushes, a
// stale-dirty upgrade at an acquire, and a leave/join with its forced
// collection — and asserts that under HLRC the policy leaves no trace
// at any stage, and no home moves except by the leave. The same drive
// under hybrid must leave one, or the test has stopped reaching the
// policy.
func TestHLRCIsTheNullPolicy(t *testing.T) {
	drive := func(t *testing.T, proto ProtocolKind, stage func(name string, c *Cluster, r *Region)) {
		c, r := protoCluster(t, proto, 3, 6)
		clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
		active := []HostID{0, 1, 2}
		barrier := func() {
			c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})
		}
		word := func(id HostID, p, w int, v byte) {
			writeBytes(c.Host(id), r.ID, p*page.Size+w*page.WordBytes, bytes.Repeat([]byte{v}, page.WordBytes), clks[id])
		}

		// Barrier closes: page 0 (homed at 0) falsely shared by hosts 1
		// and 2 with host 1 in every close; page 3 (homed at 0) densely
		// rewritten by host 2 alone; page 4 (homed at 1) sparsely
		// rewritten by its own home.
		for round := byte(1); round <= 4; round++ {
			word(1, 0, 1, round)
			word(2, 0, 2, round)
			writeBytes(c.Host(2), r.ID, 3*page.Size, bytes.Repeat([]byte{round}, page.Size), clks[2])
			word(1, 4, 0, round)
			barrier()
		}
		stage("barrier closes", c, r)

		// Lock-release flushes: a dense record passed host to host.
		for round := byte(1); round <= 2; round++ {
			for _, id := range active {
				c.AcquireLock(7, c.Host(id), clks[id])
				writeBytes(c.Host(id), r.ID, 5*page.Size, bytes.Repeat([]byte{round + byte(id)}, page.Size), clks[id])
				c.ReleaseLock(7, c.Host(id), clks[id])
			}
		}
		stage("lock-release flushes", c, r)

		// Stale-dirty upgrade: host 1 holds page 2 dirty while host 0
		// commits another word of it under a lock; host 1's acquire must
		// bring its dirty copy current without losing its own word.
		word(1, 2, 1, 7)
		c.AcquireLock(3, c.Host(0), clks[0])
		word(0, 2, 0, 5)
		c.ReleaseLock(3, c.Host(0), clks[0])
		c.AcquireLock(3, c.Host(1), clks[1])
		got := make([]byte, 2*page.WordBytes)
		readBytes(c.Host(1), r.ID, 2*page.Size, got, clks[1])
		c.ReleaseLock(3, c.Host(1), clks[1])
		if got[0] != 5 || got[page.WordBytes] != 7 {
			t.Fatalf("upgraded dirty page reads (%d, %d), want (5, 7)", got[0], got[page.WordBytes])
		}
		barrier()
		stage("stale-dirty upgrade", c, r)

		// Leave and rejoin, each behind its forced collection.
		c.ForceGC(active)
		if _, err := c.NormalLeave(2, LeaveViaMaster); err != nil {
			t.Fatal(err)
		}
		c.ForceGC([]HostID{0, 1})
		if _, err := c.Join(2); err != nil {
			t.Fatal(err)
		}
		word(2, 0, 2, 9)
		word(1, 0, 1, 9)
		barrier()
		stage("leave/join", c, r)
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	drive(t, HLRC, func(name string, c *Cluster, r *Region) {
		if c.policy != nil {
			t.Fatalf("hlrc after %s: the cluster holds a page policy", name)
		}
		if got := policyFootprint(c); got != [10]int64{} {
			t.Errorf("hlrc after %s: policy footprint %v, want all zero", name, got)
		}
		for p := 0; p < r.NPages; p++ {
			home := c.PageOwner(r.ID, p)
			if name != "leave/join" && home != HostID(p%3) {
				t.Errorf("hlrc after %s: page %d homed at %d, want its round-robin home %d", name, p, home, p%3)
			}
		}
	})
	touched := false
	drive(t, Hybrid, func(_ string, c *Cluster, _ *Region) {
		touched = touched || policyFootprint(c) != [10]int64{}
	})
	if !touched {
		t.Error("the same drive under hybrid left no policy footprint: it no longer exercises the policy")
	}
}
