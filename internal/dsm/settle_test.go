package dsm

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// TestHomeSettleSites walks, under both home-based protocols, one hand-
// driven row per place that reads or writes a home's copy of a page, or
// changes or frees the copy of the writer whose diff the home took last,
// while that diff is the newest thing the home received (DESIGN.md
// "Home settlement"). Each row starts from a fresh newFenceRig cluster
// and ends by reading every word ever written from every active host,
// checking each value against the last write (a race-free program reads
// nothing else) and then the global invariants. The transcript — every
// read, and after each row the whole Stats snapshot, the fabric, the
// clocks and every copy — is pinned in testdata/settlesites-{hlrc,hybrid}.golden,
// so a row that reads the right values at a different simulated cost
// fails too.
//
// Regenerate with NOWOMP_REGEN_GOLDEN=settle, and only for an intended
// protocol change.
func TestHomeSettleSites(t *testing.T) {
	for _, proto := range []ProtocolKind{HLRC, Hybrid} {
		t.Run(proto.String(), func(t *testing.T) {
			var out strings.Builder
			for _, row := range settleRows {
				t.Run(row.name, func(t *testing.T) {
					g := newSettleRig(t, proto)
					defer func() {
						out.WriteString("== " + row.name + "\n" + g.out.String())
					}()
					func() {
						defer func() {
							if v := recover(); v != nil {
								t.Fatalf("panic: %v", v)
							}
						}()
						row.run(g)
						g.readBack()
					}()
					if err := g.c.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					g.pin("after the row")
				})
			}
			checkGolden(t, filepath.Join("testdata", "settlesites-"+proto.String()+".golden"), out.String(), "settle")
		})
	}
}

// settleRows is the table: one row per settle site.
var settleRows = []struct {
	name string
	run  func(g *settleRig)
}{
	{"a fault served from the home", func(g *settleRig) {
		_, _, rd := g.pushed()
		g.read(rd, 1, 5)
		g.read(rd, 1, 100)
	}},
	{"the home's ReadSpan", func(g *settleRig) {
		hm, _, _ := g.pushed()
		g.read(hm, 1, 5)
	}},
	{"the home's WriteSpan", func(g *settleRig) {
		hm, _, _ := g.pushed()
		span := g.c.Host(hm).WriteSpan(g.r.ID, g.off(1, 4), 6*page.WordBytes, g.clks[hm])
		g.sees(hm, 1, 5, "its WriteSpan", span[page.WordBytes])
		span[5*page.WordBytes] = 22
		g.want[g.off(1, 9)] = 22
		g.barrier()
	}},
	{"the home's WriteSpanOnce", func(g *settleRig) {
		hm, _, _ := g.pushed()
		span, ch := g.c.Host(hm).WriteSpanOnce(g.r.ID, g.off(1, 4), 6*page.WordBytes, page.WordBytes, g.clks[hm])
		g.sees(hm, 1, 5, "its WriteSpanOnce", span[page.WordBytes])
		span[5*page.WordBytes] = 22
		ch.Set(5)
		g.want[g.off(1, 9)] = 22
		g.barrier()
	}},
	{"the home's PageView.ReadPage", func(g *settleRig) {
		hm, _, _ := g.pushed()
		v := g.c.Host(hm).PageView(g.r.ID, g.clks[hm])
		g.sees(hm, 1, 5, "its PageView", v.ReadPage(1)[5*page.WordBytes])
	}},
	{"a second writer's push", func(g *settleRig) {
		// Two writers close the page at one barrier: the first push is
		// taken, then the second writer's lands on the same home.
		_, src, rd := g.pushed()
		g.write(rd, 1, 9, 22)
		g.write(src, 1, 6, 33)
		g.barrier()
	}},
	{"the source pushing again", func(g *settleRig) {
		// The source stores through a write-once span and the next
		// barrier pushes its diff to the same home, which nothing has
		// read since the last push.
		_, src, _ := g.pushed()
		g.writeOnce(src, 1, 6, 33)
		g.barrier()
	}},
	{"a push into a dirty home", func(g *settleRig) {
		hm, src, _ := g.pushed()
		g.write(hm, 1, 9, 22)
		g.acquire(1, src)
		g.write(src, 1, 6, 33)
		g.release(1, src)
		g.acquire(1, hm)
		g.read(hm, 1, 6)
		g.release(1, hm)
		g.barrier()
	}},
	{"the source's twin-path first write", func(g *settleRig) {
		// The source changes a word it pushed and restores it, so its
		// twin scan finds nothing to push; a reader fetches from the
		// home in between, reading a word the source leaves alone.
		_, src, rd := g.pushed()
		g.write(src, 1, 5, 44)
		g.read(rd, 1, 100)
		g.write(src, 1, 5, 11)
		diffs := g.c.stats.DiffsCreated
		g.barrier()
		if g.c.stats.DiffsCreated != diffs {
			g.t.Errorf("the source's close made %d diffs, want none: it restored the only word it changed", g.c.stats.DiffsCreated-diffs)
		}
	}},
	{"the source's refetch", func(g *settleRig) {
		_, src, _ := g.stalePush()
		g.read(src, 1, 6)
		g.read(src, 1, 9)
	}},
	{"mergeOverHomePage", func(g *settleRig) {
		// The source's copy goes stale under a lock it then acquires
		// while it holds the page dirty through a write-once span.
		_, src, rd := g.pushed()
		g.acquire(1, rd)
		g.write(rd, 1, 9, 22)
		g.release(1, rd)
		g.writeOnce(src, 1, 6, 33)
		g.acquire(1, src)
		g.read(src, 1, 9)
		g.release(1, src)
		g.barrier()
	}},
	{"borrow and recall", func(g *settleRig) {
		// The reader becomes current without reading the home's copy
		// (under hybrid, from the window), borrows that copy as its
		// twin, and a push under a lock then recalls the borrow.
		_, src, rd := g.pushed()
		g.read(rd, 1, 100)
		g.write(rd, 1, 9, 22)
		if !g.c.Host(rd).pages[g.r.ID][1].borrowed {
			g.t.Fatalf("host %d did not borrow the home's copy", rd)
		}
		g.acquire(1, src)
		g.write(src, 1, 5, 44)
		g.release(1, src)
		g.barrier()
	}},
	{"takeHome", func(g *settleRig) {
		// A dense write-once close takes the home (hybrid) from a copy
		// holding the source's pushed word.
		_, _, rd := g.pushed()
		g.read(rd, 1, 100)
		for w := 0; w < 300; w++ {
			g.writeOnce(rd, 1, w, 55)
		}
		g.barrier()
		if g.c.Protocol() == Hybrid && g.home(1) != rd {
			g.t.Fatalf("page 1 is homed at %d, want the dense writer %d", g.home(1), rd)
		}
	}},
	{"dominant migration", func(g *settleRig) {
		// Three closes with two writers each: under hybrid the page
		// is falsely shared and its home moves to the writer present
		// in all three, host 0, whose diff the home took last but one.
		for i := 0; i < 3; i++ {
			g.write(0, 1, 10+i, byte(60+i))
			g.write(1, 1, 20+i, byte(70+i))
			g.barrier()
		}
		if g.c.Protocol() == Hybrid && g.home(1) != 0 {
			g.t.Fatalf("page 1 is homed at %d, want the dominant writer 0", g.home(1))
		}
	}},
	{"a leave of the source", func(g *settleRig) {
		_, src, _ := g.pushed()
		g.leave(src)
	}},
	{"a leave of the home", func(g *settleRig) {
		hm, _, _ := g.pushed()
		g.leave(hm)
	}},
	{"collect/settlePage", func(g *settleRig) {
		// The source pushed from a stale copy, which the collection
		// frees.
		g.stalePush()
		g.c.ForceGC(g.active)
	}},
	{"CollectToMaster and DumpRegion", func(g *settleRig) {
		g.pushedToMaster()
		g.c.CollectToMaster()
		dump, err := g.c.DumpRegion(g.r)
		if err != nil {
			g.t.Fatal(err)
		}
		for _, off := range g.offsets() {
			v := dump[off]
			fmt.Fprintf(&g.out, "  the dump holds %d at page %d byte %d\n", v, off/page.Size, off%page.Size)
			if v != g.want[off] {
				g.t.Errorf("the dump holds %d at page %d byte %d, want %d", v, off/page.Size, off%page.Size, g.want[off])
			}
		}
	}},
	{"InstallRegion", func(g *settleRig) {
		g.pushedToMaster()
		data := make([]byte, g.r.Bytes)
		data[g.off(0, 5)] = 77
		data[g.off(1, 6)] = 88
		if err := g.c.InstallRegion(g.r, data); err != nil {
			g.t.Fatal(err)
		}
		for off := range g.want {
			g.want[off] = data[off]
		}
		g.want[g.off(1, 6)] = 88
	}},
	{"CheckInvariants", func(g *settleRig) {
		g.pushed()
		if err := g.c.CheckInvariants(); err != nil {
			g.t.Fatal(err)
		}
	}},
	{"a reader fetching while the source stores write-once words", func(g *settleRig) {
		_, src, rd := g.pushed()
		g.writeOnce(src, 1, 5, 66)
		g.read(rd, 1, 100)
		g.barrier()
	}},
}

// settleRig is a fence rig that remembers which hosts are active.
type settleRig struct {
	*fenceRig
	active []HostID
}

func newSettleRig(t *testing.T, proto ProtocolKind) *settleRig {
	return &settleRig{fenceRig: newFenceRig(t, proto), active: []HostID{0, 1, 2}}
}

func (g *settleRig) off(p, word int) int { return p*page.Size + word*page.WordBytes }
func (g *settleRig) home(p int) HostID   { return g.c.meta(g.r.ID, p).owner }

func (g *settleRig) barrier() {
	arr := make([]simtime.Seconds, len(g.active))
	for i, id := range g.active {
		arr[i] = g.clks[id].Now()
	}
	res := g.c.Barrier(g.active, arr)
	for _, id := range g.active {
		g.clks[id].AdvanceTo(res.ReleaseTime)
	}
}

// pushed leaves page 1's home holding a diff no host has read since it
// was pushed. Host 2 writes word 100 first (under hybrid the home
// follows it to host 2 and keeps its diff in the window, so the next
// writer pushes instead of taking the home), then the source — the
// active host that is neither the master nor the home — writes word 5
// and the barrier pushes it. The reader is the master, whose copy that
// barrier invalidated.
func (g *settleRig) pushed() (hm, src, rd HostID) {
	g.t.Helper()
	g.write(2, 1, 100, 9)
	g.barrier()
	hm = g.home(1)
	if hm == 0 {
		g.t.Fatalf("page 1 is homed at the master")
	}
	src = 3 - hm
	g.write(src, 1, 5, 11)
	g.barrier()
	if g.home(1) != hm {
		g.t.Fatalf("page 1 moved home from %d to %d with host %d's push", hm, g.home(1), src)
	}
	return hm, src, 0
}

// stalePush is pushed followed by a push from a stale copy: the reader
// commits word 9 under a lock the source never acquires, then the
// source writes word 6, and the barrier pushes its diff and invalidates
// its copy.
func (g *settleRig) stalePush() (hm, src, rd HostID) {
	hm, src, rd = g.pushed()
	g.acquire(1, rd)
	g.write(rd, 1, 9, 22)
	g.release(1, rd)
	g.write(src, 1, 6, 33)
	g.barrier()
	if g.c.Host(src).Valid(g.r.ID, 1) {
		g.t.Fatalf("host %d's copy of page 1 is valid after a push from a stale copy", src)
	}
	return hm, src, rd
}

// pushedToMaster leaves page 0's home, the master, holding a diff host
// 2 pushed (the master writes the page first, so under hybrid the home
// stays).
func (g *settleRig) pushedToMaster() {
	g.t.Helper()
	g.write(0, 0, 100, 9)
	g.barrier()
	g.write(2, 0, 5, 11)
	g.barrier()
	if g.home(0) != 0 {
		g.t.Fatalf("page 0 moved home to %d", g.home(0))
	}
}

// read is fenceRig.read, checked against the last write.
func (g *settleRig) read(h HostID, p, word int) {
	g.t.Helper()
	if v, want := g.fenceRig.read(h, p, word), g.want[g.off(p, word)]; v != want {
		g.t.Errorf("host %d reads %d at page %d word %d, want %d", h, v, p, word, want)
	}
}

// writeOnce stores v into the first byte of one word of page p through
// a one-element write-once span, reporting the change.
func (g *settleRig) writeOnce(h HostID, p, word int, v byte) {
	off := g.off(p, word)
	span, ch := g.c.Host(h).WriteSpanOnce(g.r.ID, off, page.WordBytes, page.WordBytes, g.clks[h])
	if span[0] != v {
		span[0] = v
		ch.Set(0)
	}
	g.want[off] = v
}

// sees notes a value host h read through another path than ReadSpan,
// and checks it against the last write.
func (g *settleRig) sees(h HostID, p, word int, via string, v byte) {
	g.t.Helper()
	fmt.Fprintf(&g.out, "  host %d reads page %d word %d = %d through %s\n", h, p, word, v, via)
	if want := g.want[g.off(p, word)]; v != want {
		g.t.Errorf("host %d reads %d at page %d word %d through %s, want %d", h, v, p, word, via, want)
	}
}

// leave runs a normal leave of h without a collection first: the state
// the leave must not lose is the one the row built.
func (g *settleRig) leave(h HostID) {
	g.t.Helper()
	if _, err := g.c.NormalLeave(h, LeaveDirectHandoff); err != nil {
		g.t.Fatal(err)
	}
	g.active = slices.DeleteFunc(g.active, func(id HostID) bool { return id == h })
	fmt.Fprintf(&g.out, "  host %d left\n", h)
}

func (g *settleRig) offsets() []int {
	offs := make([]int, 0, len(g.want))
	for off := range g.want {
		offs = append(offs, off)
	}
	slices.Sort(offs)
	return offs
}

// readBack reads every byte ever written from every active host and
// checks it against the last write; the transcript gets one line per
// host, the bytes' hash.
func (g *settleRig) readBack() {
	g.t.Helper()
	for _, h := range g.active {
		sum := fnv.New64a()
		for _, off := range g.offsets() {
			var b [1]byte
			readBytes(g.c.Host(h), g.r.ID, off, b[:], g.clks[h])
			sum.Write(b[:])
			if b[0] != g.want[off] {
				g.t.Errorf("host %d reads back %d at page %d byte %d, want %d", h, b[0], off/page.Size, off%page.Size, g.want[off])
			}
		}
		fmt.Fprintf(&g.out, "  host %d reads back %d written bytes, fnv64a %016x\n", h, len(g.want), sum.Sum64())
	}
}

// checkGolden compares a transcript with its golden file, naming the
// first differing line and the "== " row it belongs to, if any, or
// rewrites the file when NOWOMP_REGEN_GOLDEN is key.
func checkGolden(t *testing.T, path, got, key string) {
	t.Helper()
	if os.Getenv("NOWOMP_REGEN_GOLDEN") == key {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	row := ""
	for i := range gl {
		if strings.HasPrefix(gl[i], "== ") {
			row = fmt.Sprintf(", row %q", gl[i][3:])
		}
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s: first difference at line %d%s\n got: %s\nwant: %s", path, i+1, row, gl[i], w)
		}
	}
	t.Fatalf("%s: transcript is %d lines, golden %d", path, len(gl), len(wl))
}
