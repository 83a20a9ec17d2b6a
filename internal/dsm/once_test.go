package dsm

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// onceRig drives two identical clusters in lockstep: the first writes
// through WriteSpan and its twins, the second through WriteSpanOnce,
// reporting every unit whose bits a store changes. Everything else —
// reads, locks, barriers, flushes, collections — runs on both.
type onceRig struct {
	t    *testing.T
	g    [2]*fenceRig   // 0: the twin path, 1: the write-once path
	took [2][]string    // the masks takeMask returned since the last step
	want map[int]uint32 // region byte offset -> the unit last stored there
}

func newOnceRig(t *testing.T, proto ProtocolKind) *onceRig {
	r := &onceRig{t: t, want: map[int]uint32{}}
	for i := range r.g {
		r.g[i] = newFenceRig(t, proto)
		r.g[i].c.tookMask = func(h HostID, pk pageKey, m page.Mask) {
			r.took[i] = append(r.took[i], fmt.Sprintf("host %d page %d %x", h, pk.page, m))
		}
	}
	return r
}

// store writes vals into consecutive 4-byte units of page p, from unit
// u, on host h; the write-once cluster's reports go through Set for
// odd units u and in place, as the kernels report, for even ones.
func (r *onceRig) store(h HostID, p, u int, vals ...uint32) {
	r.t.Helper()
	for i, g := range r.g {
		off := p*page.Size + u*page.UnitBytes
		for rest := vals; len(rest) > 0; {
			var b []byte
			var ch Changes
			if i == 0 {
				b = g.c.Host(h).WriteSpan(g.r.ID, off, 4*len(rest), g.clks[h])
			} else {
				b, ch = g.c.Host(h).WriteSpanOnce(g.r.ID, off, 4*len(rest), 4, g.clks[h])
			}
			var changed page.Units
			n := len(b) / 4
			for k := 0; k < n; k++ {
				if binary.LittleEndian.Uint32(b[4*k:]) != rest[k] {
					changed[k/64] |= 1 << (k % 64)
				}
				binary.LittleEndian.PutUint32(b[4*k:], rest[k])
			}
			switch {
			case i == 0:
			case u%2 == 1:
				for k := 0; k < n; k++ {
					if changed[k/64]>>(k%64)&1 != 0 {
						ch.Set(k)
					}
				}
			default:
				bits, at := ch.Bits()
				for k := 0; k < n; k++ {
					if changed[k/64]>>(k%64)&1 != 0 {
						bits[(at+k)/64] |= 1 << ((at + k) % 64)
					}
				}
			}
			off, rest = off+len(b), rest[n:]
		}
	}
	for k, v := range vals {
		r.want[p*page.Size+(u+k)*page.UnitBytes] = v
	}
}

// both runs f on each cluster.
func (r *onceRig) both(f func(g *fenceRig)) {
	for _, g := range r.g {
		f(g)
	}
}

func (r *onceRig) barrier()                   { r.both(func(g *fenceRig) { g.barrier() }) }
func (r *onceRig) acquire(lock int, h HostID) { r.both(func(g *fenceRig) { g.acquire(lock, h) }) }
func (r *onceRig) release(lock int, h HostID) { r.both(func(g *fenceRig) { g.release(lock, h) }) }
func (r *onceRig) read(h HostID, p, word int) { r.both(func(g *fenceRig) { g.read(h, p, word) }) }

// pending returns the mask host h's open interval on page p would
// close with: the twin cluster's scan, or the write-once cluster's
// carried units.
func pending(g *fenceRig, h HostID, p int) (page.Mask, bool) {
	st := &g.c.Host(h).pages[g.r.ID][p]
	switch {
	case !st.dirty:
		return page.Mask{}, false
	case st.borrowed:
		home := g.c.dir[g.r.ID][p].owner
		return page.Scan(g.c.Host(home).pages[g.r.ID][p].data, st.data), true
	}
	return g.c.Host(h).ownMask(st)
}

// same fails the test unless, after the step just taken, the two
// clusters agree on everything a simulated number is made of and on
// every page's bytes, state and pending diff, and took the same masks.
func (r *onceRig) same(step string) {
	r.t.Helper()
	a, b := r.g[0], r.g[1]
	check := func(what string, x, y any) {
		r.t.Helper()
		if !reflect.DeepEqual(x, y) {
			r.t.Fatalf("%s: %s differ\ntwin path: %v\nonce path: %v", step, what, x, y)
		}
	}
	check("stats", fmt.Sprintf("%+v", a.c.stats.Snapshot()), fmt.Sprintf("%+v", b.c.stats.Snapshot()))
	check("fabric counters", a.c.fabric.Snapshot(), b.c.fabric.Snapshot())
	for i := range a.clks {
		check(fmt.Sprintf("host %d clocks", i), a.clks[i].Now(), b.clks[i].Now())
	}
	check("interval sequences", a.c.seq, b.c.seq)
	check("release logs", a.c.releaseLog, b.c.releaseLog)
	check("directories", a.c.dir, b.c.dir)
	check("taken masks", r.took[0], r.took[1])
	r.took[0], r.took[1] = nil, nil
	for id := range a.c.hosts {
		h := HostID(id)
		for p := 0; p < a.r.NPages; p++ {
			sa, sb := &a.c.Host(h).pages[a.r.ID][p], &b.c.Host(h).pages[b.r.ID][p]
			where := fmt.Sprintf("host %d page %d", h, p)
			check(where+" bytes", sa.data, sb.data)
			check(where+" states", [3]any{sa.valid, sa.dirty, sa.appliedSeq}, [3]any{sb.valid, sb.dirty, sb.appliedSeq})
			ma, oka := pending(a, h, p)
			mb, okb := pending(b, h, p)
			check(where+" pending masks", [2]any{ma, oka}, [2]any{mb, okb})
		}
	}
}

// TestWriteOnceMatchesTwin holds the write-once path to the twin path
// it stands in for, per protocol, on three machines of different
// speeds and links: after a sole-writer close, two writers closing one
// page at a barrier (under Tmk the single-to-multi transition), a lock
// release of a write-once page while a peer holds it write-once, an
// acquire that patches a dirty write-once page (under HLRC, merges it
// over the home's page), its release, a push into a dirty write-once
// home, a hybrid elision, a page WriteSpan opened first, and a forced
// collection of an open interval, the two clusters must agree on Stats,
// fabric, clocks, directory, every page's bytes and state, every
// pending diff and every mask an interval close took.
func TestWriteOnceMatchesTwin(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		r := newOnceRig(t, proto)
		for h := HostID(0); h < 3; h++ {
			r.read(h, 0, 0)
			r.read(h, 2, 0)
		}
		r.barrier()
		r.same("setup: every host read pages 0 and 2, barrier")

		// Unit 7 is stored with the value it holds; unit 11 starts
		// mid-word.
		r.store(1, 1, 6, 7, 0)
		r.store(1, 1, 11, 9)
		r.same("host 1 stored page 1 units 6, 7 and 11")
		r.barrier()
		r.same("sole-writer close of page 1")

		// Under hybrid page 1 is now a proven single writer's, homed
		// at host 1 and valid nowhere else: the first write is elided.
		r.store(1, 1, 20, 5)
		r.same("host 1 stored page 1 unit 20")
		r.barrier()
		r.same("barrier after the store hybrid elides")

		r.store(0, 0, 0, 1, 2, 3, 4)
		r.store(2, 0, 200, 5, 0, 6, 7)
		r.barrier()
		r.same("hosts 0 and 2 closed page 0 together")

		// Host 1 holds page 2 write-once while host 0 commits the
		// same page under a lock: the dirty-peer check reads host 1's
		// carried units.
		r.store(1, 2, 18, 21)
		r.acquire(1, 0)
		r.store(0, 2, 10, 11)
		r.release(1, 0)
		r.same("host 0 released page 2 under lock 1, host 1 holding it dirty")

		// Host 1 stores into the word host 0 committed before it
		// acquires the lock that orders it after that commit — a race
		// the simulator does not diagnose. The acquire patches the word
		// over host 1's store (under HLRC merges host 1's words over the
		// home's page instead), and both paths must lose or keep it
		// alike: the patched word leaves the carried units as it leaves
		// the twin's scan.
		r.store(1, 2, 11, 13)
		r.acquire(1, 1)
		r.same("host 1 stored page 2 unit 11 and acquired lock 1")
		r.release(1, 1)
		r.same("host 1 released lock 1")

		// A dirty home (host 0 homes page 0 under HLRC and hybrid)
		// receives another writer's push, and the barrier closes it
		// with host 0 the page's sole writer, behind that commit.
		r.store(0, 0, 60, 8)
		r.acquire(2, 2)
		r.store(2, 0, 300, 9)
		r.release(2, 2)
		r.same("host 2 pushed page 0 into host 0's dirty copy")
		r.barrier()
		r.same("barrier after the push")

		// WriteSpan first: the page keeps its twin and the write-once
		// span's report goes nowhere.
		r.both(func(g *fenceRig) {
			writeBytes(g.c.Host(2), g.r.ID, 3*page.Size, []byte{1, 2, 3, 4}, g.clks[2])
		})
		r.want[3*page.Size] = 0x04030201
		r.store(2, 3, 1, 17)
		r.barrier()
		r.same("host 2 wrote page 3 through WriteSpan, then a write-once span")

		// A whole page, open at a forced collection.
		vals := make([]uint32, page.Size/page.UnitBytes)
		for i := range vals {
			vals[i] = uint32(i % 3) // a third unchanged
		}
		r.store(0, 3, 0, vals...)
		r.same("host 0 stored all of page 3")
		r.both(func(g *fenceRig) {
			gc := g.c.ForceGC([]HostID{0, 1, 2})
			g.clks[0].Advance(gc)
		})
		r.same("forced collection")
		r.both(func(g *fenceRig) {
			if err := g.c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})

		for h := HostID(0); h < 3; h++ {
			for off, v := range r.want {
				for i, g := range r.g {
					var b [4]byte
					readBytes(g.c.Host(h), g.r.ID, off, b[:], g.clks[h])
					// The race above loses one of the two stores to
					// page 2's word 5; which one is the protocol's.
					racy := off/page.WordBytes == (2*page.Size+10*page.UnitBytes)/page.WordBytes
					if got := binary.LittleEndian.Uint32(b[:]); got != v && !racy {
						t.Fatalf("cluster %d host %d reads %d at offset %d, want %d", i, h, got, off, v)
					}
				}
			}
		}
		r.barrier()
		r.same("every host read every stored unit, barrier")
	})
}

// TestWriteSpanOncePanics holds the claim rules: a unit claimed twice
// in one interval, including by a span that starts mid-word, and a
// WriteSpan on a page a write-once span opened, panic and name the
// page; the next interval starts with no claims.
func TestWriteSpanOncePanics(t *testing.T) {
	const twice = `dsm: host 1 claimed byte offset %d of region "fence" (page 1) twice in one interval`
	for _, tc := range []struct {
		name  string
		first [2]int // byte offset in page 1, bytes
		then  func(g *fenceRig, h *Host, off int) func()
		want  string
	}{
		{"a unit claimed twice", [2]int{12, 8}, func(g *fenceRig, h *Host, off int) func() {
			return func() { h.WriteSpanOnce(g.r.ID, off+16, 4, 4, g.clks[1]) }
		}, fmt.Sprintf(twice, page.Size+16)},
		{"a mid-word span overlapping an earlier one", [2]int{20, 12}, func(g *fenceRig, h *Host, off int) func() {
			return func() { h.WriteSpanOnce(g.r.ID, off+8, 16, 4, g.clks[1]) }
		}, fmt.Sprintf(twice, page.Size+20)},
		{"an 8-byte span over 4-byte claims", [2]int{64, 4}, func(g *fenceRig, h *Host, off int) func() {
			return func() { h.WriteSpanOnce(g.r.ID, off+64, 8, 8, g.clks[1]) }
		}, fmt.Sprintf(twice, page.Size+64)},
		{"WriteSpan after WriteSpanOnce", [2]int{0, 4}, func(g *fenceRig, h *Host, off int) func() {
			return func() { h.WriteSpan(g.r.ID, off+2048, 4, g.clks[1]) }
		}, `dsm: host 1: WriteSpan on page 1 of region "fence", which a write-once span opened in this interval`},
		{"a span not aligned to its elements", [2]int{0, 4}, func(g *fenceRig, h *Host, off int) func() {
			return func() { h.WriteSpanOnce(g.r.ID, off+4, 8, 8, g.clks[1]) }
		}, `dsm: host 1: write-once span [4100,4108) of 8-byte elements`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
				g := newFenceRig(t, proto)
				h := g.c.Host(1)
				g.read(1, 1, 0)
				off := page.Size
				h.WriteSpanOnce(g.r.ID, off+tc.first[0], tc.first[1], 4, g.clks[1])
				trigger := tc.then(g, h, off)
				func() {
					defer func() {
						got := fmt.Sprint(recover())
						if !strings.HasPrefix(got, tc.want) {
							t.Fatalf("panic\n got: %s\nwant: %s...", got, tc.want)
						}
					}()
					trigger()
				}()
			})
		})
	}

	// A barrier ends the interval and its claims.
	g := newFenceRig(t, Tmk)
	h := g.c.Host(1)
	h.WriteSpanOnce(g.r.ID, page.Size, 4, 4, g.clks[1])
	g.barrier()
	h.WriteSpanOnce(g.r.ID, page.Size, 4, 4, g.clks[1])
	h.WriteSpanOnce(g.r.ID, page.Size+4, 4, 4, g.clks[1])
	g.barrier()
	if err := g.c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOnceAllocationPins pins the heap cost of a write-once interval
// once the host's records exist: under HLRC the first write, the
// report and the close allocate nothing, on the barrier path and on the
// lock-release path; under Tmk a sole writer's barrier close, which no
// longer touches the page, allocates nothing, and a release only the
// diff it retains.
func TestOnceAllocationPins(t *testing.T) {
	for _, proto := range []ProtocolKind{Tmk, HLRC} {
		c, err := New(Config{MaxHosts: 2, Adaptive: true, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Join(1); err != nil {
			t.Fatal(err)
		}
		r, err := c.Alloc("pin", page.Size)
		if err != nil {
			t.Fatal(err)
		}
		w, clk := c.Host(1), simtime.NewClock(0)
		active, writers := []HostID{0, 1}, []HostID{1}
		flush := make([]simtime.Seconds, 2)
		readBytes(w, r.ID, 0, make([]byte, 8), clk)
		var v byte
		write := func() {
			// Every unit gets a new value, so every close has a diff.
			v++
			b, ch := w.WriteSpanOnce(r.ID, 0, page.Size, 4, clk)
			bits, _ := ch.Bits()
			for u := 0; u < len(b); u += 4 {
				b[u] = v
			}
			for i := range bits {
				bits[i] = ^uint64(0)
			}
		}
		barrier := func() {
			write()
			c.seq++
			for _, pk := range w.takeWritten() {
				c.proto.closePage(pk, writers, c.seq, active, flush)
			}
		}
		release := func() {
			write()
			if c.flushInterval(w, clk) != 1 {
				t.Fatal("flush made no diff")
			}
		}
		barrier() // the host's first record
		if n := testing.AllocsPerRun(200, barrier); n != 0 {
			t.Errorf("%s write-once write fault plus barrier close allocates %v times per interval, want 0", proto, n)
		}
		limit := 0.0
		if proto == Tmk {
			limit = 2 // the retained diff's header and payload
		}
		if n := testing.AllocsPerRun(200, release); n > limit {
			t.Errorf("%s write-once write fault plus flush allocates %v times per interval, want <= %v", proto, n, limit)
		}
	}
}

// TestWriteOnceRaceDiagnostics holds the sub-word race checks to the
// same verdict on a write-once page as on a twinned one: a lock release
// of a word a peer holds write-once (the dirty-peer check), and under
// the home-based protocols a push of a word the dirty home wrote, panic
// with the same message on both paths.
func TestWriteOnceRaceDiagnostics(t *testing.T) {
	eachProtocol(t, func(t *testing.T, proto ProtocolKind) {
		for _, home := range []bool{false, true} {
			r := newOnceRig(t, proto)
			for h := HostID(0); h < 3; h++ {
				r.read(h, 2, 0)
			}
			r.barrier()
			// Page 2 is homed at host 2 under HLRC and hybrid.
			peer := HostID(1)
			if home {
				peer = 2
			}
			r.store(peer, 2, 11, 13)
			r.acquire(1, 0)
			r.store(0, 2, 10, 11)
			var msgs [2]string
			for i, g := range r.g {
				func() {
					defer func() { msgs[i] = fmt.Sprint(recover()) }()
					g.release(1, 0)
				}()
			}
			if msgs[0] != msgs[1] || !strings.Contains(msgs[0], "both wrote within the 8-byte word") {
				t.Fatalf("peer %d: twin path panics %q, write-once path %q", peer, msgs[0], msgs[1])
			}
		}
	})
}
