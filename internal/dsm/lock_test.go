package dsm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nowomp/internal/engine"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

func TestLockVisibility(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)

	c.AcquireLock(1, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 41, clocks[0])
	c.ReleaseLock(1, c.Host(0), clocks[0])

	c.AcquireLock(1, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 41 {
		t.Fatalf("read %d under lock, want 41", got)
	}
	c.ReleaseLock(1, c.Host(1), clocks[1])
}

func TestLockInvalidatesStaleCopy(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	// Host 1 caches the page first.
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 0 {
		t.Fatalf("initial read = %d", got)
	}
	// Host 0 updates under a lock.
	c.AcquireLock(7, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 99, clocks[0])
	c.ReleaseLock(7, c.Host(0), clocks[0])
	// Host 1 must see the new value after its own acquire.
	c.AcquireLock(7, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 99 {
		t.Fatalf("stale read %d after acquire, want 99", got)
	}
	c.ReleaseLock(7, c.Host(1), clocks[1])
}

func TestLockUpgradesDirtyPage(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	// Host 1 dirties word 1 outside the lock (disjoint from host 0's
	// word 0: race-free).
	putU64(c, 1, r.ID, 8, 7, clocks[1])
	// Host 0 writes word 0 under the lock.
	c.AcquireLock(3, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 5, clocks[0])
	c.ReleaseLock(3, c.Host(0), clocks[0])
	// Host 1 acquires: its dirty page must be patched in place, keeping
	// its own write.
	c.AcquireLock(3, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 5 {
		t.Fatalf("word 0 = %d, want 5 (patched in)", got)
	}
	if got := getU64(c, 1, r.ID, 8, clocks[1]); got != 7 {
		t.Fatalf("word 1 = %d, want 7 (own dirty write preserved)", got)
	}
	c.ReleaseLock(3, c.Host(1), clocks[1])
}

func TestLockMutualExclusion(t *testing.T) {
	c, _ := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", page.Size)
	const perHost = 50
	e := engine.New()
	c.BeginPhase(e)
	for h := 0; h < 4; h++ {
		h := h
		clk := simtime.NewClock(0)
		host := c.Host(HostID(h))
		e.Go("incrementer", h, clk, func(*engine.Proc) {
			for i := 0; i < perHost; i++ {
				c.AcquireLock(0, host, clk)
				var b [8]byte
				readBytes(host, r.ID, 0, b[:], clk)
				v := binary.LittleEndian.Uint64(b[:])
				binary.LittleEndian.PutUint64(b[:], v+1)
				writeBytes(host, r.ID, 0, b[:], clk)
				c.ReleaseLock(0, host, clk)
			}
		})
	}
	e.Run()
	c.EndPhase()
	clk := simtime.NewClock(0)
	c.AcquireLock(0, c.Host(0), clk)
	got := getU64(c, 0, r.ID, 0, clk)
	c.ReleaseLock(0, c.Host(0), clk)
	if got != 4*perHost {
		t.Fatalf("counter = %d, want %d", got, 4*perHost)
	}
	if n := c.Stats().LockAcquires; n != 4*perHost+1 {
		t.Fatalf("LockAcquires = %d, want %d", n, 4*perHost+1)
	}
}

// TestUpgradeInPlaceKeepsDiffsOwnWrites pins the twin-patching rule of
// the dirty-upgrade path: when an acquire patches a committed remote
// diff into a page the host holds dirty, the host's own next diff must
// contain only its own writes. Before the fix the twin was left stale,
// so the next flush re-broadcast the remote word as this host's — and
// the word-race check panicked on a race-free program as soon as a
// third host was dirty on that word again.
func TestUpgradeInPlaceKeepsDiffsOwnWrites(t *testing.T) {
	c, _ := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	e := engine.New()
	c.BeginPhase(e)
	defer c.EndPhase()

	clk0 := simtime.NewClock(1.0)
	clk1 := simtime.NewClock(0)
	e.Go("h0", 0, clk0, func(*engine.Proc) {
		// Commit word 0 under the lock, then dirty it again in a new
		// open interval: the open write is what the race check compares
		// host 1's later flush against.
		c.AcquireLock(3, c.Host(0), clk0)
		putU64(c, 0, r.ID, 0, 5, clk0)
		c.ReleaseLock(3, c.Host(0), clk0)
		putU64(c, 0, r.ID, 0, 6, clk0)
	})
	e.Go("h1", 1, clk1, func(p *engine.Proc) {
		// Cache and dirty word 1 before host 0's release, wait out the
		// release, then acquire: the upgrade patches host 0's committed
		// word-0 diff into the dirty page. The release's diff must
		// cover word 1 only — overlapping host 0's open word-0 write
		// would panic the race check.
		putU64(c, 1, r.ID, 8, 7, clk1)
		var sitOut engine.WaitList
		p.ParkOn(&sitOut, "sit out host 0's lock section", func() (simtime.Seconds, bool) { return 5.0, true })
		clk1.AdvanceTo(5.0)
		c.AcquireLock(3, c.Host(1), clk1)
		putU64(c, 1, r.ID, 8, 8, clk1)
		c.ReleaseLock(3, c.Host(1), clk1)
		if got := getU64(c, 1, r.ID, 0, clk1); got != 5 {
			t.Errorf("host 1 word 0 = %d, want 5 (patched in)", got)
		}
	})
	e.Run()
}

func TestLockCostCharged(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	c.Alloc("a", page.Size)
	m := c.Model()

	// First acquire: uncontended at the manager.
	c.AcquireLock(9, c.Host(1), clocks[1])
	if d := clocks[1].Now(); d < m.LockBase || d > m.LockBase+simtime.Micros(1) {
		t.Fatalf("uncontended acquire cost %v, want about %v", d, m.LockBase)
	}
	c.ReleaseLock(9, c.Host(1), clocks[1])

	// Second acquire by a third host: forwarded from holder 1.
	t0 := clocks[2].Now()
	c.AcquireLock(9, c.Host(2), clocks[2])
	d := clocks[2].Now() - t0
	if d < m.LockBase+m.LockForward {
		t.Fatalf("forwarded acquire cost %v, want >= %v", d, m.LockBase+m.LockForward)
	}
	c.ReleaseLock(9, c.Host(2), clocks[2])
}

func TestLocksThenBarrierConsistent(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r, _ := c.Alloc("a", page.Size)
	// Everyone caches the page.
	for h := 0; h < 3; h++ {
		getU64(c, HostID(h), r.ID, 0, clocks[h])
	}
	// Host 2 updates under a lock; hosts 0 and 1 do not acquire.
	c.AcquireLock(4, c.Host(2), clocks[2])
	putU64(c, 2, r.ID, 0, 123, clocks[2])
	c.ReleaseLock(4, c.Host(2), clocks[2])
	// The barrier must invalidate the stale copies even though hosts 0
	// and 1 never acquired the lock.
	barrier(c, clocks)
	for h := 0; h < 2; h++ {
		if got := getU64(c, HostID(h), r.ID, 0, clocks[h]); got != 123 {
			t.Fatalf("host %d read %d after barrier, want 123", h, got)
		}
	}
}

// TestLockGrantOrder pins the order in which parked acquirers are
// granted a lock: by virtual request time, then host id, then the
// order the requests were made (the ticket), whatever order the procs
// were started in.
func TestLockGrantOrder(t *testing.T) {
	type requester struct {
		name  string
		host  HostID
		start simtime.Seconds
	}
	const hold = simtime.Seconds(1e-3)
	run := func(rs []requester, repeat int) []string {
		c, _ := newTestCluster(t, 4, 4)
		e := engine.New()
		c.BeginPhase(e)
		defer c.EndPhase()
		var grants []string
		for _, r := range rs {
			clk := simtime.NewClock(r.start)
			host := c.Host(r.host)
			e.Go(r.name, int(r.host), clk, func(p *engine.Proc) {
				for range repeat {
					c.AcquireLock(0, host, clk)
					grants = append(grants, r.name)
					// Park through the hold, so every other requester
					// queues behind this one before the release.
					until := clk.Now() + hold
					var sitOut engine.WaitList
					p.ParkOn(&sitOut, "hold the lock", func() (simtime.Seconds, bool) { return until, true })
					clk.AdvanceTo(until)
					c.ReleaseLock(0, host, clk)
				}
			})
		}
		e.Run()
		return grants
	}
	cases := []struct {
		name   string
		rs     []requester
		repeat int
		want   []string
	}{
		{
			name:   "equal instants, several hosts",
			rs:     []requester{{"h3", 3, 0}, {"h1", 1, 0}, {"h0", 0, 0}, {"h2", 2, 0}},
			repeat: 1,
			want:   []string{"h0", "h1", "h2", "h3"},
		},
		{
			name:   "repeated requests from one host",
			rs:     []requester{{"h2b", 2, 0}, {"h2a", 2, 0}, {"h1", 1, 0}, {"h3", 3, hold / 2}},
			repeat: 3,
			want: []string{
				"h1", "h2b", "h2a", "h3",
				"h1", "h2b", "h2a", "h3",
				"h1", "h2b", "h2a", "h3",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.rs, tc.repeat)
			if !slices.Equal(got, tc.want) {
				t.Errorf("grants %q, want %q", got, tc.want)
			}
		})
	}
}

// TestAcquireAllocationPin: acquire-side consistency walks the release
// log's unsynchronised suffix in place and reads each page's live
// directory record, so an acquire over four released pages allocates
// nothing.
func TestAcquireAllocationPin(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", 4*page.Size)
	h1 := c.Host(1)
	for p := 0; p < 4; p++ {
		getU64(c, 1, r.ID, p*page.Size, clocks[1])
	}
	c.AcquireLock(0, c.Host(0), clocks[0])
	for p := 0; p < 4; p++ {
		putU64(c, 0, r.ID, p*page.Size, uint64(p)+1, clocks[0])
	}
	c.ReleaseLock(0, c.Host(0), clocks[0])
	c.AcquireLock(0, h1, clocks[1])
	if n := len(c.releaseLog); n != 4 {
		t.Fatalf("release log holds %d entries, want 4", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h1.syncSeq = 0
		c.AcquireInterval(h1, clocks[1])
	}); n != 0 {
		t.Fatalf("AcquireInterval over a 4-page stale suffix: %v allocations, want 0", n)
	}
	if got := getU64(c, 1, r.ID, 3*page.Size, clocks[1]); got != 4 {
		t.Fatalf("host 1 reads %d after the acquire, want 4", got)
	}
}

// TestReleaseLockByNonHolderPanics: only the host granted a lock may
// release it. A release of a free lock would price the next grant as
// forwarded from the releaser; a release by another host would let a
// third host in beside the holder. Both panic naming the lock, the
// releaser and the holder, outside and inside an engine-driven
// construct, and leave the lock as it was.
func TestReleaseLockByNonHolderPanics(t *testing.T) {
	released := func(t *testing.T, run func(), want string) {
		t.Helper()
		defer func() {
			t.Helper()
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
				t.Fatalf("panic %q, want it to contain %q", msg, want)
			}
		}()
		run()
	}
	t.Run("outside a construct", func(t *testing.T) {
		c, clocks := newTestCluster(t, 3, 3)
		released(t, func() { c.ReleaseLock(5, c.Host(1), clocks[1]) }, "host 1 released lock 5, which no host holds")
		c.AcquireLock(5, c.Host(0), clocks[0])
		released(t, func() { c.ReleaseLock(5, c.Host(2), clocks[2]) }, "host 2 released lock 5, which host 0 holds")
		// The holder still holds it and releases it; the next grant comes
		// from the manager (host 0, the last holder), not forwarded from
		// host 2: a request and a grant.
		c.ReleaseLock(5, c.Host(0), clocks[0])
		released(t, func() { c.ReleaseLock(5, c.Host(0), clocks[0]) }, "host 0 released lock 5, which no host holds")
		msgs := c.Fabric().Snapshot().TotalMessages()
		c.AcquireLock(5, c.Host(1), clocks[1])
		if d := c.Fabric().Snapshot().TotalMessages() - msgs; d != 2 {
			t.Fatalf("acquire after the refused releases sent %d messages, want 2 (not forwarded)", d)
		}
		c.ReleaseLock(5, c.Host(1), clocks[1])
	})
	t.Run("inside a construct", func(t *testing.T) {
		c, _ := newTestCluster(t, 2, 2)
		e := engine.New()
		c.BeginPhase(e)
		defer c.EndPhase()
		clk0, clk1 := simtime.NewClock(0), simtime.NewClock(1e-3)
		e.Go("holder", 0, clk0, func(p *engine.Proc) {
			c.AcquireLock(2, c.Host(0), clk0)
			var sitOut engine.WaitList
			p.ParkOn(&sitOut, "hold the lock", func() (simtime.Seconds, bool) { return 1, true })
			c.ReleaseLock(2, c.Host(0), clk0)
		})
		e.Go("intruder", 1, clk1, func(*engine.Proc) {
			c.ReleaseLock(2, c.Host(1), clk1)
		})
		released(t, e.Run, "host 1 released lock 2, which host 0 holds")
	})
}

// TestLockCycleAllocationPin: a Tmk acquire, one changed word and the
// release allocate only the retained diff's header and payload, which
// outlive the interval on the writer's chain.
func TestLockCycleAllocationPin(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	h0 := c.Host(0)
	v := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		v++
		c.AcquireLock(0, h0, clocks[0])
		putU64(c, 0, r.ID, 0, v, clocks[0])
		c.ReleaseLock(0, h0, clocks[0])
	}); n > 2 {
		t.Fatalf("Tmk lock cycle over one changed word: %v allocations, want at most 2", n)
	}
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != v {
		t.Fatalf("host 1 reads %d, want %d", got, v)
	}
}

// TestContendedGrantAllocationPin: in steady state an engine-driven
// grant of a contended lock allocates nothing — the request and its
// wake condition are reused. Two procs alternate on one lock for 100
// and for 1100 rounds; the longer run may not allocate more.
func TestContendedGrantAllocationPin(t *testing.T) {
	c, _ := newTestCluster(t, 2, 2)
	grants := [2]int{}
	contend := func(rounds int) {
		e := engine.New()
		c.BeginPhase(e)
		defer c.EndPhase()
		for h := range 2 {
			clk := simtime.NewClock(0)
			host := c.Host(HostID(h))
			e.Go("contender", h, clk, func(*engine.Proc) {
				for range rounds {
					c.AcquireLock(3, host, clk)
					grants[h]++
					c.ReleaseLock(3, host, clk)
				}
			})
		}
		e.Run()
	}
	short := testing.AllocsPerRun(5, func() { contend(100) })
	long := testing.AllocsPerRun(5, func() { contend(1100) })
	if long > short {
		t.Fatalf("2000 more contended grants allocated %v more times", long-short)
	}
	if grants[0] != grants[1] || grants[0] == 0 {
		t.Fatalf("grants per host %v, want equal and non-zero", grants)
	}
}

// TestTmkFaultAllocationPin: a Tmk read fault that patches a copy
// with diffs from three writers of one barrier interval gathers and
// orders them in the protocol's scratch buffer, allocating nothing.
func TestTmkFaultAllocationPin(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", page.Size)
	for h := range 4 {
		getU64(c, HostID(h), r.ID, 0, clocks[h])
	}
	for w := 1; w <= 3; w++ {
		putU64(c, HostID(w), r.ID, 8*w, uint64(w), clocks[w])
	}
	barrier(c, clocks)
	h0 := c.Host(0)
	st := &h0.pages[r.ID][0]
	if st.valid {
		t.Fatal("host 0's copy survived the barrier valid")
	}
	applied := st.appliedSeq
	before := c.stats.DiffFetches
	if n := testing.AllocsPerRun(200, func() {
		st.valid, st.appliedSeq = false, applied
		getU64(c, 0, r.ID, 0, clocks[0])
	}); n != 0 {
		t.Fatalf("Tmk fault over three pending writers: %v allocations, want 0", n)
	}
	if d := c.stats.DiffFetches - before; d != 3*201 {
		t.Fatalf("%d diff fetches over 201 faults, want 3 a fault", d)
	}
	for w := 1; w <= 3; w++ {
		if got := getU64(c, 0, r.ID, 8*w, clocks[0]); got != uint64(w) {
			t.Fatalf("host 0 reads word %d as %d, want %d", w, got, w)
		}
	}
}
