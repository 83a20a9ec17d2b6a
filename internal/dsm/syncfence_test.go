package dsm

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nowomp/internal/machine"
	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// TestSyncPathFence walks one hand-driven cluster per protocol through
// the synchronisation paths outside a barrier — lock release, lock
// acquire, task-handoff flush, the faults that follow them and a
// collection — and pins, after every step, everything a simulated
// number is made of: the whole Stats snapshot, the fabric's bytes and
// messages, every host's clock, the interval sequence, the page owners,
// the release log's length and every live twin. The goldens under
// testdata/ were captured on the commit before the two protocols'
// copies of these paths were merged; a refactor of the sync paths must
// reproduce them unedited. Every machine has its own speed and every
// link its own latency and bandwidth, so a charge priced on the wrong
// host or link moves a clock.
//
// Regenerate with NOWOMP_REGEN_GOLDEN=fence, and only for an intended
// protocol change.
func TestSyncPathFence(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		got := walkSyncPaths(t, proto)
		checkGolden(t, filepath.Join("testdata", "syncfence-"+proto.String()+".golden"), got, "fence")
	})
}

// fenceRig is the cluster under the walk plus its transcript.
type fenceRig struct {
	t    *testing.T
	c    *Cluster
	r    *Region
	clks []*simtime.Clock
	want map[int]byte // region byte offset -> the value last written there
	out  strings.Builder
}

// newFenceRig builds three active hosts on machines of speeds 1, 0.5
// and 2 joined by three differently scaled links, and one four-page
// region (under the home-based protocols page p is homed at host p%3).
func newFenceRig(t *testing.T, proto ProtocolKind) *fenceRig {
	t.Helper()
	mm := machine.New(3)
	mm.SetSpeed(1, 0.5)
	mm.SetSpeed(2, 2)
	c, err := New(Config{MaxHosts: 3, Adaptive: true, Protocol: proto, Machine: mm,
		Links: func(f *simnet.Fabric) error {
			f.SetDuplexScale(0, 1, 1.5, 0.5)
			f.SetDuplexScale(0, 2, 2, 0.25)
			f.SetDuplexScale(1, 2, 3, 0.75)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for id := HostID(1); id <= 2; id++ {
		if _, err := c.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	r, err := c.Alloc("fence", 4*page.Size)
	if err != nil {
		t.Fatal(err)
	}
	return &fenceRig{t: t, c: c, r: r, want: map[int]byte{},
		clks: []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}}
}

// write stores vals at the start of one word of page p on host h.
func (g *fenceRig) write(h HostID, p, word int, vals ...byte) {
	off := p*page.Size + word*page.WordBytes
	writeBytes(g.c.Host(h), g.r.ID, off, vals, g.clks[h])
	for i, v := range vals {
		g.want[off+i] = v
	}
}

// read returns the first byte of one word of page p as host h sees it,
// and notes the value in the transcript.
func (g *fenceRig) read(h HostID, p, word int) byte {
	var b [1]byte
	readBytes(g.c.Host(h), g.r.ID, p*page.Size+word*page.WordBytes, b[:], g.clks[h])
	fmt.Fprintf(&g.out, "  host %d reads page %d word %d = %d\n", h, p, word, b[0])
	return b[0]
}

func (g *fenceRig) acquire(lock int, h HostID) { g.c.AcquireLock(lock, g.c.Host(h), g.clks[h]) }
func (g *fenceRig) release(lock int, h HostID) { g.c.ReleaseLock(lock, g.c.Host(h), g.clks[h]) }
func (g *fenceRig) flush(h HostID) int         { return g.c.FlushInterval(g.c.Host(h), g.clks[h]) }

func (g *fenceRig) barrier() {
	res := g.c.Barrier([]HostID{0, 1, 2}, []simtime.Seconds{g.clks[0].Now(), g.clks[1].Now(), g.clks[2].Now()})
	for _, clk := range g.clks {
		clk.AdvanceTo(res.ReleaseTime)
	}
}

func (g *fenceRig) twin(h HostID, p int) []byte { return g.c.Host(h).pages[g.r.ID][p].twin }

// pin appends the state after one step to the transcript.
func (g *fenceRig) pin(step string) {
	c := g.c
	fmt.Fprintf(&g.out, "%s\n", step)
	fmt.Fprintf(&g.out, "  stats %+v\n", c.stats.Snapshot())
	fab := c.fabric.Snapshot()
	fmt.Fprintf(&g.out, "  fabric %d bytes %d msgs\n", fab.TotalBytes(), fab.TotalMessages())
	g.out.WriteString("  clocks")
	for _, clk := range g.clks {
		g.out.WriteString(" " + strconv.FormatFloat(float64(clk.Now()), 'g', -1, 64))
	}
	fmt.Fprintf(&g.out, "\n  seq %d releaseLog %d owners", c.seq, len(c.releaseLog))
	for p := 0; p < g.r.NPages; p++ {
		fmt.Fprintf(&g.out, " %d", c.dir[g.r.ID][p].owner)
	}
	g.out.WriteString("\n  copies")
	for _, h := range c.hosts {
		for p := range h.pages[g.r.ID] {
			st := &h.pages[g.r.ID][p]
			if st.data == nil {
				continue
			}
			flags := ""
			for _, f := range []struct {
				on   bool
				name string
			}{{st.valid, "v"}, {st.dirty, "d"}, {st.borrowed, "b"}} {
				if f.on {
					flags += f.name
				}
			}
			fmt.Fprintf(&g.out, " h%dp%d@%d%s", h.id, p, st.appliedSeq, flags)
		}
	}
	g.out.WriteString("\n  twins")
	for _, h := range c.hosts {
		for p := range h.pages[g.r.ID] {
			tw := h.pages[g.r.ID][p].twin
			if tw == nil {
				continue
			}
			nz := 0
			for _, b := range tw {
				if b != 0 {
					nz++
				}
			}
			f := fnv.New64a()
			f.Write(tw)
			fmt.Fprintf(&g.out, " h%dp%d:%d nonzero:%016x", h.id, p, nz, f.Sum64())
		}
	}
	g.out.WriteString("\n")
}

// walkSyncPaths drives the walk and returns its transcript.
func walkSyncPaths(t *testing.T, proto ProtocolKind) string {
	g := newFenceRig(t, proto)
	c := g.c

	// Every host holds pages 0 and 2; host 1 has committed a write to
	// page 1 at a barrier (its home under the home-based protocols, and
	// under hybrid from now on a proven single-writer page whose only
	// valid copy is the writer's).
	for h := HostID(0); h < 3; h++ {
		g.read(h, 0, 0)
		g.read(h, 2, 0)
	}
	g.write(1, 1, 3, 7)
	g.barrier()
	g.pin("setup: every host read pages 0 and 2, host 1 wrote page 1, barrier")

	// A lock release of a written page, while a peer holds the same page
	// dirty in words of its own.
	g.write(1, 2, 9, 21)
	g.pin("host 1 wrote page 2 word 9 and holds it dirty")
	g.acquire(1, 0)
	g.write(0, 2, 5, 11)
	g.release(1, 0)
	g.pin("host 0 wrote page 2 word 5 under lock 1 and released it")
	g.acquire(1, 2)
	g.write(2, 2, 6, 12)
	g.release(1, 2)
	g.pin("host 2 wrote page 2 word 6 under lock 1 and released it")

	// An acquire by the host holding that page dirty: the words two other
	// writers committed must land in its copy and in its twin.
	g.acquire(1, 1)
	g.pin("host 1, page 2 dirty, acquired lock 1")
	tw := g.twin(1, 2)
	if tw == nil {
		t.Fatalf("host 1 holds page 2 without a twin of its own after the acquire")
	}
	if got := tw[5*page.WordBytes]; got != 11 {
		t.Fatalf("host 1's twin of page 2 has %d in word 5 after the acquire, want host 0's committed 11", got)
	}
	if got := tw[6*page.WordBytes]; got != 12 {
		t.Fatalf("host 1's twin of page 2 has %d in word 6 after the acquire, want host 2's committed 12", got)
	}
	if got := tw[9*page.WordBytes]; got != 0 {
		t.Fatalf("host 1's twin of page 2 has its own uncommitted %d in word 9", got)
	}
	g.release(1, 1)
	g.pin("host 1 released lock 1: its diff carries word 9 alone")
	g.acquire(1, 2)
	g.read(2, 2, 5)
	g.read(2, 2, 9)
	g.release(1, 2)
	g.pin("host 2 acquired lock 1, read page 2 and released with nothing written")

	// A release of a page hybrid elides (single writer, its own home, no
	// other valid copy), then a fault below the floor that commit raised.
	g.acquire(2, 1)
	g.write(1, 1, 4, 8)
	g.pin("host 1 wrote page 1 word 4 under lock 2")
	g.release(2, 1)
	g.pin("host 1 released lock 2")
	g.acquire(2, 0)
	g.read(0, 1, 3)
	g.read(0, 1, 4)
	g.pin("host 0 acquired lock 2 and read page 1")

	// A rewrite of the same values: a twin is made and consumed, no diff
	// exists, and the page does not go on the release log.
	g.write(0, 1, 4, 8)
	logged := len(c.releaseLog)
	g.release(2, 0)
	if len(c.releaseLog) != logged {
		t.Fatalf("a release that changed nothing grew the release log from %d to %d", logged, len(c.releaseLog))
	}
	g.pin("host 0 rewrote page 1 word 4 with the value it held and released lock 2")

	// A long run of releases of one page by one writer: each writes half a
	// kilobyte, so the hybrid window overflows its byte bound and raises
	// its floor, and the Tmk writer's chain reaches the prune stride after
	// host 0 has moved the covered prefix forward.
	for i := 0; i < 2*coalesceStride+2; i++ {
		g.acquire(3, 2)
		vals := make([]byte, 512)
		for j := range vals {
			vals[j] = byte(i + 1)
		}
		g.write(2, 3, (i%8)*64, vals...)
		g.release(3, 2)
		if i == coalesceStride-4 || i == 2*coalesceStride-4 {
			g.acquire(3, 0)
			g.read(0, 3, 0)
			g.release(3, 0)
			g.pin(fmt.Sprintf("host 2 released page 3 under lock 3 %d times; host 0 acquired and read it", i+1))
		}
	}
	g.pin("host 2 finished its run of releases of page 3")
	g.acquire(3, 0)
	g.read(0, 3, 0)
	g.read(0, 3, 7*64)
	g.release(3, 0)
	g.pin("host 0, holding an old copy, acquired lock 3 and read page 3")
	g.acquire(3, 1)
	g.read(1, 3, 64)
	g.release(3, 1)
	g.pin("host 1, holding no copy, acquired lock 3 and read page 3")
	g.acquire(3, 2)
	g.write(2, 3, 100, 99)
	g.release(3, 2)
	g.acquire(3, 0)
	g.read(0, 3, 100)
	g.release(3, 0)
	g.pin("one more release by host 2; host 0, one interval behind, read page 3")

	// Task-handoff flushes with no acquire between them, so every host
	// stays behind the others: host 0 commits page 0 twice, hosts 1 and 2
	// once each, and the collection's owner (the last writer under Tmk)
	// has to pull from two writers, one of them holding two diffs.
	g.write(0, 0, 1, 31)
	if n := g.flush(0); n != 1 {
		t.Fatalf("flush committed %d pages, want 1", n)
	}
	g.write(0, 0, 2, 32)
	g.flush(0)
	g.write(1, 0, 3, 33)
	g.flush(1)
	g.pin("host 0 flushed page 0 twice and host 1 once")
	g.write(2, 0, 4, 34)
	g.pin("host 2 wrote page 0 word 4")
	g.flush(2)
	g.pin("host 2 flushed page 0")
	gc := c.ForceGC([]HostID{0, 1, 2})
	fmt.Fprintf(&g.out, "  collection took %s\n", strconv.FormatFloat(float64(gc), 'g', -1, 64))
	g.pin("forced collection")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Every host reads every byte ever written.
	for h := HostID(0); h < 3; h++ {
		for p := 0; p < g.r.NPages; p++ {
			g.read(h, p, 0)
		}
		for off, v := range g.want {
			var b [1]byte
			readBytes(c.Host(h), g.r.ID, off, b[:], g.clks[h])
			if b[0] != v {
				t.Fatalf("host %d reads %d at offset %d, want %d", h, b[0], off, v)
			}
		}
	}
	g.barrier()
	g.pin("every host read every written byte, barrier")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A sole writer behind a locked commit: host 0 writes page 2 word 1
	// outside any lock while host 1 commits word 0 under lock 4. At the
	// barrier host 0 is the page's only writer, but it never applied
	// host 1's diff, so its copy must not stay current.
	g.write(0, 2, 1, 41)
	g.acquire(4, 1)
	g.write(1, 2, 0, 40)
	g.release(4, 1)
	g.barrier()
	g.pin("host 0 wrote page 2 word 1, host 1 wrote word 0 under lock 4, barrier")
	for h := HostID(0); h < 3; h++ {
		if got := g.read(h, 2, 0); got != 40 {
			t.Fatalf("host %d reads %d in page 2 word 0 after the barrier, want host 1's locked 40", h, got)
		}
		if got := g.read(h, 2, 1); got != 41 {
			t.Fatalf("host %d reads %d in page 2 word 1 after the barrier, want host 0's 41", h, got)
		}
	}
	g.pin("every host read page 2 words 0 and 1")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return g.out.String()
}

// TestLockedCommitBeforeAClose runs the shape of TestSyncPathFence's
// last step at every place that declares a copy current after a close
// or a collection: one host writes a word of a page outside any lock,
// another commits a different word of it under a lock, and then the
// interval closes. The unordered writer never applied the locked
// commit, so whatever the close decides, every host must read both
// words afterwards. Page p is homed at host p%3 under the home-based
// protocols; the barrier row runs with the home at each host.
func TestLockedCommitBeforeAClose(t *testing.T) {
	// race writes word 1 of page p on host a outside any lock and word
	// 0 on host b under lock 5.
	race := func(g *fenceRig, p int, a, b HostID) {
		g.write(a, p, 1, 51)
		g.acquire(5, b)
		g.write(b, p, 0, 50)
		g.release(5, b)
	}
	// check reads both words of page p on every host in hosts.
	check := func(t *testing.T, g *fenceRig, p int, hosts ...HostID) {
		t.Helper()
		for _, h := range hosts {
			if got := g.read(h, p, 0); got != 50 {
				t.Errorf("host %d reads %d in page %d word 0, want the locked commit's 50", h, got, p)
			}
			if got := g.read(h, p, 1); got != 51 {
				t.Errorf("host %d reads %d in page %d word 1, want the unordered write's 51", h, got, p)
			}
		}
		if err := g.c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	// shared has every host read every page and closes a barrier.
	shared := func(g *fenceRig) {
		for h := HostID(0); h < 3; h++ {
			for p := 0; p < g.r.NPages; p++ {
				g.read(h, p, 0)
			}
		}
		g.barrier()
	}
	rows := []struct {
		name string
		run  func(t *testing.T, g *fenceRig)
	}{
		{"barrier close", func(t *testing.T, g *fenceRig) {
			shared(g)
			for p := 0; p < 3; p++ {
				race(g, p, 1, 2)
			}
			g.barrier()
			for p := 0; p < 3; p++ {
				check(t, g, p, 0, 1, 2)
			}
		}},
		{"elided home", func(t *testing.T, g *fenceRig) {
			// Page 1 is homed at host 1; two barriers with host 1 its
			// only writer make it, under hybrid, a proven single-writer
			// page valid nowhere else, whose next write is elided.
			g.write(1, 1, 3, 7)
			g.barrier()
			g.write(1, 1, 3, 8)
			g.barrier()
			g.write(1, 1, 1, 51)
			if g.c.proto.Kind() == Hybrid && !g.c.Host(1).pages[g.r.ID][1].elided() {
				t.Fatal("host 1's write to page 1 was not elided")
			}
			g.acquire(5, 2)
			g.write(2, 1, 0, 50)
			g.release(5, 2)
			g.barrier()
			check(t, g, 1, 0, 1, 2)
		}},
		{"collection", func(t *testing.T, g *fenceRig) {
			shared(g)
			race(g, 2, 1, 0)
			g.c.ForceGC([]HostID{0, 1, 2})
			check(t, g, 2, 0, 1, 2)
		}},
		{"leave handoff", func(t *testing.T, g *fenceRig) {
			// The unordered writer leaves after the collection, handing
			// its pages to the master.
			shared(g)
			race(g, 2, 2, 1)
			g.c.ForceGC([]HostID{0, 1, 2})
			if _, err := g.c.NormalLeave(2, LeaveViaMaster); err != nil {
				t.Fatal(err)
			}
			check(t, g, 2, 0, 1)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
				row.run(t, newFenceRig(t, proto))
			})
		})
	}
}
