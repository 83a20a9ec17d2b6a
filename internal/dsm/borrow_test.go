package dsm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// Home-backed twins (DESIGN.md "Twin life cycle"): under the home-based
// protocols a first write borrows the home's clean copy as its twin
// where it can, and every path that could change that copy, or make
// another host the home, recalls the borrow first. The tests below hold
// each borrow condition and each recall site; the five mutations the
// verify skill lists (drop a recall, drop a condition) each turn a test
// named here or in codec_test.go red.

// TestPageStateIsOneCacheLine: the borrow flags sit beside appliedSeq
// so the per-page state does not grow past one cache line. With 8-byte
// pointers it fills the line exactly; with 4-byte ones it is smaller.
func TestPageStateIsOneCacheLine(t *testing.T) {
	n := unsafe.Sizeof(pageState{})
	if unsafe.Sizeof(uintptr(0)) == 8 && n != 64 {
		t.Fatalf("pageState is %d bytes, want 64", n)
	}
	if n > 64 {
		t.Fatalf("pageState is %d bytes, want at most 64", n)
	}
}

// checkBorrows is the mid-interval counterpart of CheckInvariants:
// every home's lent equals the number of hosts borrowing the page, no
// other copy is lent, a borrower is an active non-home host with a
// current dirty twinless copy, the copy it borrows is valid, current
// and clean — and, the soundness property itself, the borrower's page
// differs from the home's copy only in words the borrower wrote (wrote
// returns what the test knows the host wrote to the page).
func checkBorrows(c *Cluster, wrote func(HostID, pageKey) page.Mask) error {
	for ri := range c.dir {
		for p := range c.dir[ri] {
			pm := &c.dir[ri][p]
			pk := pageKey{RegionID(ri), p}
			latest := pm.latestSeq()
			hst := &c.Host(pm.owner).pages[ri][p]
			var n int32
			for _, h := range c.hosts {
				st := &h.pages[ri][p]
				if h.id != pm.owner && st.lent != 0 {
					return fmt.Errorf("host %d, not the home of page %d/%d, lends it %d times", h.id, ri, p, st.lent)
				}
				if !st.borrowed {
					continue
				}
				n++
				if h.id == pm.owner || !h.active || !st.dirty || !st.valid || st.twin != nil || st.appliedSeq < latest {
					return fmt.Errorf("host %d borrows page %d/%d in state %+v (home %d, latest %d)", h.id, ri, p, *st, pm.owner, latest)
				}
				if !hst.valid || hst.dirty || hst.appliedSeq < latest {
					return fmt.Errorf("page %d/%d is borrowed from home %d in state %+v (latest %d)", ri, p, pm.owner, *hst, latest)
				}
				m, own := page.Scan(hst.data, st.data), wrote(h.id, pk)
				for i := range m {
					if m[i]&^own[i] != 0 {
						return fmt.Errorf("host %d's page %d/%d differs from the home's copy outside its own words (lane %d: %016x, wrote %016x)", h.id, ri, p, i, m[i], own[i])
					}
				}
			}
			if hst.lent != n {
				return fmt.Errorf("home %d of page %d/%d lends it %d times to %d borrowers", pm.owner, ri, p, hst.lent, n)
			}
		}
	}
	return nil
}

// borrowRig drives a three-host cluster (page p homed at host p) one
// word at a time and remembers who wrote what.
type borrowRig struct {
	t     *testing.T
	c     *Cluster
	r     *Region
	clks  []*simtime.Clock
	wrote map[HostID]map[pageKey]page.Mask
	want  map[int]byte // region byte offset -> value, every write so far
}

func newBorrowRig(t *testing.T, proto ProtocolKind) *borrowRig {
	c, r := threeHostCluster(t, proto)
	return &borrowRig{t: t, c: c, r: r,
		clks:  []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)},
		wrote: map[HostID]map[pageKey]page.Mask{}, want: map[int]byte{}}
}

func (g *borrowRig) state(h HostID, p int) *pageState { return &g.c.Host(h).pages[g.r.ID][p] }
func (g *borrowRig) home(p int) HostID                { return g.c.meta(g.r.ID, p).owner }

// write stores v into the first byte of one word of page p at host h.
func (g *borrowRig) write(h HostID, p, word int, v byte) {
	off := p*page.Size + word*page.WordBytes
	writeBytes(g.c.Host(h), g.r.ID, off, []byte{v}, g.clks[h])
	g.want[off] = v
	pk := pageKey{g.r.ID, p}
	if g.wrote[h] == nil {
		g.wrote[h] = map[pageKey]page.Mask{}
	}
	m := g.wrote[h][pk]
	m[word>>6] |= 1 << (uint(word) & 63)
	g.wrote[h][pk] = m
}

// check runs the mid-interval borrow invariants.
func (g *borrowRig) check() {
	g.t.Helper()
	if err := checkBorrows(g.c, func(h HostID, pk pageKey) page.Mask { return g.wrote[h][pk] }); err != nil {
		g.t.Fatal(err)
	}
}

// barrier closes every interval, checks the global invariants (which
// now include "nothing borrowed or lent") and then that every host
// reads every value ever written.
func (g *borrowRig) barrier() {
	g.t.Helper()
	g.c.Barrier([]HostID{0, 1, 2}, []simtime.Seconds{g.clks[0].Now(), g.clks[1].Now(), g.clks[2].Now()})
	clear(g.wrote)
	if err := g.c.CheckInvariants(); err != nil {
		g.t.Fatal(err)
	}
	for h := HostID(0); h < 3; h++ {
		for off, v := range g.want {
			var got [1]byte
			readBytes(g.c.Host(h), g.r.ID, off, got[:], g.clks[h])
			if got[0] != v {
				g.t.Fatalf("host %d reads %d at offset %d, want %d", h, got[0], off, v)
			}
		}
	}
}

// twinned asserts h holds page p dirty with a twin of its own that
// equals pre.
func (g *borrowRig) twinned(h HostID, p int, pre []byte) {
	g.t.Helper()
	st := g.state(h, p)
	if !st.dirty || st.borrowed || st.twin == nil {
		g.t.Fatalf("host %d page %d: dirty=%v borrowed=%v twin=%v, want a twin of its own", h, p, st.dirty, st.borrowed, st.twin != nil)
	}
	if pre != nil && !bytes.Equal(st.twin, pre) {
		g.t.Fatalf("host %d page %d: twin is not the pre-image", h, p)
	}
}

func (g *borrowRig) borrowing(h HostID, p int) {
	g.t.Helper()
	if st := g.state(h, p); !st.dirty || !st.borrowed || st.twin != nil {
		g.t.Fatalf("host %d page %d: dirty=%v borrowed=%v twin=%v, want borrowed", h, p, st.dirty, st.borrowed, st.twin != nil)
	}
}

func homeBased(t *testing.T, f func(t *testing.T, g *borrowRig)) {
	for _, proto := range []ProtocolKind{HLRC, Hybrid} {
		t.Run(proto.String(), func(t *testing.T) { f(t, newBorrowRig(t, proto)) })
	}
}

// TestBorrowConditions: one case per clause of Cluster.borrow.
func TestBorrowConditions(t *testing.T) {
	t.Run("a current remote writer of a clean home borrows", func(t *testing.T) {
		homeBased(t, func(t *testing.T, g *borrowRig) {
			before := g.c.stats.Snapshot()
			t0 := g.clks[0].Now()
			g.write(0, 1, 5, 11) // the master holds every page's initial copy
			g.borrowing(0, 1)
			if d := g.c.stats.Snapshot().Sub(before); d.TwinsCreated != 1 || d.WriteFaults != 1 {
				t.Fatalf("borrowed write fault counted %d twins and %d write faults, want 1 and 1", d.TwinsCreated, d.WriteFaults)
			}
			if got, want := g.clks[0].Now()-t0, g.c.costs.Twin(g.c.Host(0).machine); got != want {
				t.Fatalf("borrowed write fault charged %v, want the twin cost %v", got, want)
			}
			if g.state(1, 1).lent != 1 {
				t.Fatalf("home lends %d times, want 1", g.state(1, 1).lent)
			}
			g.check()
			g.barrier()
		})
	})
	t.Run("the home does not borrow from itself", func(t *testing.T) {
		homeBased(t, func(t *testing.T, g *borrowRig) {
			g.write(1, 1, 5, 11)
			g.twinned(1, 1, nil)
			g.check()
			g.barrier()
		})
	})
	t.Run("a dirty home lends nothing", func(t *testing.T) {
		// Mutation "borrow while the home is dirty": host 0 would scan
		// against a copy holding the home's word 9 and the barrier
		// would report a word race that is not there.
		homeBased(t, func(t *testing.T, g *borrowRig) {
			pre := append([]byte(nil), g.state(0, 1).data...)
			g.write(1, 1, 9, 22)
			g.write(0, 1, 5, 11)
			g.twinned(0, 1, pre)
			g.check()
			g.barrier()
		})
	})
	t.Run("a stale copy does not borrow", func(t *testing.T) {
		// Host 1 commits word 3 of page 2 under a lock; host 0 never
		// acquires, so its copy stays valid and stale. Mutation "borrow
		// with a stale copy": host 0's scan against the home would
		// claim word 3 and push its old value over host 1's.
		homeBased(t, func(t *testing.T, g *borrowRig) {
			g.c.AcquireLock(1, g.c.Host(1), g.clks[1])
			g.write(1, 2, 3, 33)
			g.c.ReleaseLock(1, g.c.Host(1), g.clks[1])
			clear(g.wrote[1])
			if st, pm := g.state(0, 2), g.c.meta(g.r.ID, 2); !st.valid || st.appliedSeq >= pm.latestSeq() {
				t.Fatalf("host 0's copy of page 2 is not valid and stale: %+v", *st)
			}
			pre := append([]byte(nil), g.state(0, 2).data...)
			g.write(0, 2, 5, 11)
			g.twinned(0, 2, pre)
			g.check()
			g.barrier()
		})
	})
	t.Run("a home copy that is not valid and current lends nothing", func(t *testing.T) {
		// The protocol keeps every home valid and current, so the state
		// is made by hand: the clause is the precondition spelled out.
		for _, spoil := range []func(*pageState){
			func(st *pageState) { st.valid = false },
			func(st *pageState) { st.appliedSeq = -1 },
		} {
			g := newBorrowRig(t, HLRC)
			spoil(g.state(1, 1))
			g.write(0, 1, 5, 11)
			g.twinned(0, 1, nil)
		}
	})
	t.Run("tmk never borrows", func(t *testing.T) {
		g := newBorrowRig(t, Tmk)
		g.write(1, 0, 5, 11) // page 0 is owned by host 0
		g.twinned(1, 0, nil)
		g.check()
		g.barrier()
	})
}

// TestRecallSites: one case per place the home's copy stops being the
// borrowers' pre-image.
func TestRecallSites(t *testing.T) {
	// contended puts page 1 in the state where a flush is applied at
	// the home under both protocols: host 2 commits a word first, which
	// under hybrid moves the home to host 2 and leaves its diff in the
	// window, so a later writer's flush does not take the home along.
	// Returns the home and the two other hosts.
	contended := func(g *borrowRig) (hm, a, b HostID) {
		g.write(2, 1, 100, 9)
		g.barrier()
		hm = g.home(1)
		others := []HostID{0, 1, 2}
		others = append(others[:hm], others[hm+1:]...)
		return hm, others[0], others[1]
	}

	t.Run("a diff applied at the home", func(t *testing.T) {
		// Mutation "no recall in applyAtHome": b keeps borrowing a copy
		// that now holds a's word; checkDirtyPeerRaces refuses it.
		homeBased(t, func(t *testing.T, g *borrowRig) {
			hm, a, b := contended(g)
			pre := append([]byte(nil), g.state(hm, 1).data...)
			g.write(a, 1, 5, 11)
			g.write(b, 1, 9, 22)
			g.borrowing(a, 1)
			g.borrowing(b, 1)
			if g.state(hm, 1).lent != 2 {
				t.Fatalf("home lends %d times, want 2", g.state(hm, 1).lent)
			}
			g.check()
			flushes := g.c.stats.HomeFlushes
			if n := g.c.FlushInterval(g.c.Host(a), g.clks[a]); n != 1 {
				t.Fatalf("flush made %d diffs, want 1", n)
			}
			clear(g.wrote[a])
			if g.home(1) != hm || g.c.stats.HomeFlushes != flushes+1 {
				t.Fatalf("the flush was not applied at home %d", hm)
			}
			g.twinned(b, 1, pre)
			if g.state(hm, 1).lent != 0 {
				t.Fatalf("home still lends %d times after the apply", g.state(hm, 1).lent)
			}
			g.check()
			g.barrier()
		})
	})
	t.Run("the home's own first write", func(t *testing.T) {
		// Mutation "no recall at the home's own write": host 0 scans
		// against a copy holding the home's word 9 and the barrier
		// reports a word race that is not there.
		homeBased(t, func(t *testing.T, g *borrowRig) {
			pre := append([]byte(nil), g.state(1, 1).data...)
			g.write(0, 1, 5, 11)
			g.borrowing(0, 1)
			g.write(1, 1, 9, 22)
			g.twinned(0, 1, pre)
			g.twinned(1, 1, pre)
			g.check()
			g.barrier()
		})
	})
	t.Run("the home following a writer", func(t *testing.T) {
		// Hybrid only: host 0's flush of a page with an empty window
		// takes the home along. Mutation "no recall before takeHome
		// flips": host 1 would go on borrowing from a host that is no
		// longer the home; checkDirtyPeerRaces refuses it.
		g := newBorrowRig(t, Hybrid)
		pre := append([]byte(nil), g.state(2, 2).data...)
		g.write(0, 2, 5, 11)
		g.write(1, 2, 9, 22)
		g.borrowing(0, 2)
		g.borrowing(1, 2)
		g.check()
		if n := g.c.FlushInterval(g.c.Host(0), g.clks[0]); n != 1 {
			t.Fatalf("flush made %d diffs, want 1", n)
		}
		clear(g.wrote[0])
		if g.home(2) != 0 {
			t.Fatalf("page 2 is homed at %d, want the flushing writer 0", g.home(2))
		}
		g.twinned(1, 2, pre)
		if g.state(2, 2).lent != 0 {
			t.Fatalf("the old home still lends %d times", g.state(2, 2).lent)
		}
		g.check()
		g.barrier()
	})
	t.Run("concurrent borrowers closing at one barrier", func(t *testing.T) {
		// No recall at all: every writer's mask is taken against the
		// home's copy before the first diff lands on it.
		homeBased(t, func(t *testing.T, g *borrowRig) {
			g.write(0, 2, 5, 11)
			g.write(1, 2, 9, 22)
			g.check()
			twins := g.c.stats.TwinsCreated
			g.barrier()
			if g.c.stats.TwinsCreated != twins {
				t.Fatal("the barrier made a twin")
			}
		})
	})
}

// TestBorrowStateIsSwept: the paths that discard open-interval state
// wholesale discard both ends of a borrow, or refuse to run.
func TestBorrowStateIsSwept(t *testing.T) {
	clean := func(t *testing.T, g *borrowRig) {
		t.Helper()
		for h := HostID(0); h < 3; h++ {
			for p := 0; p < 3; p++ {
				if st := g.state(h, p); st.borrowed || st.lent != 0 {
					t.Fatalf("host %d page %d: borrowed=%v lent=%d after the sweep", h, p, st.borrowed, st.lent)
				}
			}
		}
	}
	t.Run("a collection that skips the borrower", func(t *testing.T) {
		g := newBorrowRig(t, HLRC)
		g.write(1, 2, 5, 11)
		g.borrowing(1, 2)
		g.c.ForceGC([]HostID{0, 2}) // host 1's interval is not closed: settlePage drops it
		clean(t, g)
	})
	t.Run("InstallRegion", func(t *testing.T) {
		g := newBorrowRig(t, HLRC)
		g.write(1, 0, 5, 11) // lent by the master, whose state survives an install
		g.write(0, 2, 5, 11)
		if err := g.c.InstallRegion(g.r, make([]byte, g.r.Bytes)); err != nil {
			t.Fatal(err)
		}
		clean(t, g)
	})
	t.Run("CheckInvariants refuses a borrow at a barrier", func(t *testing.T) {
		g := newBorrowRig(t, HLRC)
		for _, mark := range []func(){
			func() { g.state(0, 1).borrowed = true },
			func() { g.state(1, 1).lent = 1 },
		} {
			mark()
			if err := g.c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "borrowed or lent") {
				t.Fatalf("CheckInvariants = %v, want a borrowed-or-lent error", err)
			}
			*g.state(0, 1), *g.state(1, 1) = pageState{data: g.state(0, 1).data, valid: true}, pageState{data: g.state(1, 1).data, valid: true}
		}
	})
	for name, run := range map[string]func(g *borrowRig){
		"a borrower leaving without a collection": func(g *borrowRig) { g.write(1, 2, 5, 11); g.c.NormalLeave(1, LeaveDirectHandoff) },
		"a lender leaving without a collection":   func(g *borrowRig) { g.write(0, 2, 5, 11); g.c.NormalLeave(2, LeaveDirectHandoff) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if v, _ := recover().(string); !strings.Contains(v, "borrowed or lent") {
					t.Fatalf("panic %q, want a borrowed-or-lent refusal", v)
				}
			}()
			run(newBorrowRig(t, HLRC))
		})
	}
}

// TestBorrowedIntervalAllocationPin: a borrowed write fault and the
// flush that closes it allocate nothing and take nothing from the page
// pool. The pool is emptied before every run, so a single get would
// show as a 4 KB allocation — which the control, the same interval
// under Tmk, does show.
func TestBorrowedIntervalAllocationPin(t *testing.T) {
	interval := func(proto ProtocolKind) func() {
		c, err := New(Config{MaxHosts: 2, Adaptive: true, Protocol: proto})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := c.Join(1); err != nil {
			t.Fatalf("Join: %v", err)
		}
		r, err := c.Alloc("pin", page.Size)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		w, clk, word := c.Host(1), simtime.NewClock(0), make([]byte, page.WordBytes)
		readBytes(w, r.ID, 0, word, clk) // page 0 is homed at host 0; the writer needs a copy
		return func() {
			*c.pagePool = page.Freelist{}
			word[0]++
			writeBytes(w, r.ID, 0, word, clk)
			if proto != Tmk && !w.pages[r.ID][0].borrowed {
				t.Fatal("the write did not borrow")
			}
			if c.FlushInterval(w, clk) != 1 {
				t.Fatal("flush made no diff")
			}
		}
	}
	if n := testing.AllocsPerRun(200, interval(HLRC)); n != 0 {
		t.Errorf("hlrc borrowed write fault plus flush allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, interval(Tmk)); n < 1 {
		t.Errorf("tmk write fault on an empty pool allocates %v times: the pin cannot see a pool get", n)
	}
}
