package shmem

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// gatherRig is a hand-driven three-host cluster whose host 1 reads
// three float64 arrays of four pages each. Machines run at speeds 1,
// 0.5 and 2 over three differently scaled links, so a fault charged on
// the wrong host or link, or in another order, moves a clock.
type gatherRig struct {
	c    *dsm.Cluster
	ctxs []Context
	arrs [3]*Array[float64]
}

const gatherLen = 4 * page.Size / 8

// newGatherRig leaves host 1 with valid, invalid and never-fetched
// pages in every array. Host 0 writes the first two arrays and host 2
// the third, so under Tmk a page of the third comes from another host
// than the same page of the second; under HLRC and hybrid the
// round-robin homes differ per array anyway. After a barrier host 1
// reads pages 0 and 1 of the first array, 1 and 3 of the second and 0
// and 3 of the third; host 2 rewrites page 1 of the first two arrays and
// host 0 page 3 of the third, and a second barrier invalidates those
// copies. Host 1's clock then moves on by skew: float addition does not
// associate, so from some starting instants two faults charged in the
// other order leave different clock bits.
func newGatherRig(t *testing.T, proto dsm.ProtocolKind, skew simtime.Seconds) *gatherRig {
	t.Helper()
	mm := machine.New(3)
	mm.SetSpeed(1, 0.5)
	mm.SetSpeed(2, 2)
	c, err := dsm.New(dsm.Config{MaxHosts: 3, Protocol: proto, Machine: mm,
		Links: func(f *simnet.Fabric) error {
			f.SetDuplexScale(0, 1, 1.37, 0.53)
			f.SetDuplexScale(0, 2, 2.11, 0.29)
			f.SetDuplexScale(1, 2, 3.3, 0.71)
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	g := &gatherRig{c: c}
	for id := dsm.HostID(0); id < 3; id++ {
		if id > 0 {
			if _, err := c.Join(id); err != nil {
				t.Fatal(err)
			}
		}
		g.ctxs = append(g.ctxs, Context{Host: c.Host(id), Clock: simtime.NewClock(0)})
	}
	for a := range g.arrs {
		if g.arrs[a], err = Alloc[float64](c, fmt.Sprintf("gather%d", a), gatherLen); err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, gatherLen)
		for i := range vals {
			vals[i] = float64(a*gatherLen+i) + 0.5
		}
		g.arrs[a].WriteRange(g.ctxs[2*(a/2)], 0, vals)
	}
	g.barrier()
	const perPage = page.Size / 8
	for _, ap := range [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 3}, {2, 0}, {2, 3}} {
		g.arrs[ap[0]].Get(g.ctxs[1], ap[1]*perPage+7)
	}
	for _, hap := range [][3]int{{2, 0, 1}, {2, 1, 1}, {0, 2, 3}} {
		g.arrs[hap[1]].Set(g.ctxs[hap[0]], hap[2]*perPage+9, -1)
	}
	g.barrier()
	g.ctxs[1].Clock.Advance(skew)
	return g
}

func (g *gatherRig) barrier() {
	at := []simtime.Seconds{g.ctxs[0].Clock.Now(), g.ctxs[1].Clock.Now(), g.ctxs[2].Clock.Now()}
	res := g.c.Barrier([]dsm.HostID{0, 1, 2}, at)
	for _, m := range g.ctxs {
		m.Clock.AdvanceTo(res.ReleaseTime)
	}
}

// state renders everything a simulated number is made of: the whole
// Stats snapshot, every directed link's bytes and the fabric's
// messages, every clock's bits and host 1's valid pages.
func (g *gatherRig) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stats %+v\n", g.c.Stats().Snapshot())
	fab := g.c.Fabric().Snapshot()
	fmt.Fprintf(&b, "msgs %d links", fab.TotalMessages())
	for s := simnet.MachineID(0); s < 3; s++ {
		for d := simnet.MachineID(0); d < 3; d++ {
			fmt.Fprintf(&b, " %d", fab.LinkBytes(s, d))
		}
	}
	b.WriteString("\nclocks")
	for _, m := range g.ctxs {
		b.WriteString(" " + strconv.FormatUint(math.Float64bits(float64(m.Clock.Now())), 16))
	}
	b.WriteString("\nvalid")
	for _, a := range g.arrs {
		for p := 0; p < a.Pages(); p++ {
			if g.c.Host(1).Valid(a.Region().ID, p) {
				fmt.Fprintf(&b, " %s/%d", a.Region().Name, p)
			}
		}
	}
	return b.String()
}

// gatherIdx visits every page of the arrays, several more than once and
// out of order.
var gatherIdx = []int32{1500, 3, 600, 2047, 1024, 4, 513, 1600, 0, 2000, 1100, 700, 1536, 511, 512}

// getEach loads idx through per-element Array.Get in index order, the
// three arrays in turn, and renders the values and the state after each
// element.
func getEach(g *gatherRig, idx []int32, xs, ys, zs []float64) string {
	var b strings.Builder
	for k, i := range idx {
		xs[k] = g.arrs[0].Get(g.ctxs[1], int(i))
		ys[k] = g.arrs[1].Get(g.ctxs[1], int(i))
		zs[k] = g.arrs[2].Get(g.ctxs[1], int(i))
		fmt.Fprintf(&b, "[%d] %v %v %v\n%s\n", i, xs[k], ys[k], zs[k], g.state())
	}
	return b.String()
}

// gatherSkews are the starting instants host 1's clock is moved by.
var gatherSkews = []simtime.Seconds{0, 1.0 / 3, 0.0123456789, 987.654321, 0.7071067811865476, 42.4242}

// TestGather3MatchesGet holds Gather3 to per-element Array.Get under
// every protocol and from several starting instants: the same values,
// and after every element the same faults, charges, messages and valid
// pages; then one whole-list Gather3 against the same list of Gets;
// then an out-of-range index, which must panic at the same element
// with everything before it loaded and nothing after.
func TestGather3MatchesGet(t *testing.T) {
	for _, proto := range []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC, dsm.Hybrid} {
		for _, skew := range gatherSkews {
			t.Run(fmt.Sprintf("%s/skew=%g", proto, skew), func(t *testing.T) {
				checkGather3(t, proto, skew)
			})
		}
	}
}

func checkGather3(t *testing.T, proto dsm.ProtocolKind, skew simtime.Seconds) {
	n := len(gatherIdx)
	outs := func(n int) (xs, ys, zs []float64) {
		return make([]float64, n), make([]float64, n), make([]float64, n)
	}
	reader := func(g *gatherRig, table []PageRef) Reader3[float64] {
		return Readers3(g.ctxs[1], g.arrs[0], g.arrs[1], g.arrs[2], table)
	}

	// Element by element: one Gather3 per index through one reader, so
	// the table carries over between calls.
	ref := newGatherRig(t, proto, skew)
	wx, wy, wz := outs(n)
	want := getEach(ref, gatherIdx, wx, wy, wz)
	g := newGatherRig(t, proto, skew)
	r := reader(g, make([]PageRef, g.arrs[0].Pages()))
	var got strings.Builder
	gx, gy, gz := outs(n)
	for k, i := range gatherIdx {
		r.Gather3(gatherIdx[k:k+1], gx[k:], gy[k:], gz[k:])
		fmt.Fprintf(&got, "[%d] %v %v %v\n%s\n", i, gx[k], gy[k], gz[k], g.state())
	}
	if got.String() != want {
		t.Fatalf("element-wise Gather3 differs from Get:\n got:\n%s\nwant:\n%s", got.String(), want)
	}

	// One call over the whole list, through a table whose every entry
	// is stale: a page of -1s standing in for another reader's.
	g = newGatherRig(t, proto, skew)
	stale := make([]float64, page.Size/8)
	for i := range stale {
		stale[i] = -1
	}
	p := unsafe.Pointer(unsafe.SliceData(stale))
	table := make([]PageRef, g.arrs[0].Pages())
	for i := range table {
		table[i] = PageRef{p0: p, p1: p, p2: p}
	}
	gx, gy, gz = outs(n)
	r = reader(g, table)
	r.Gather3(gatherIdx, gx, gy, gz)
	if !equalBits(gx, wx) || !equalBits(gy, wy) || !equalBits(gz, wz) {
		t.Fatalf("Gather3 values %v %v %v, Get %v %v %v", gx, gy, gz, wx, wy, wz)
	}
	if got, want := g.state(), ref.state(); got != want {
		t.Fatalf("after one Gather3:\n%s\nafter the Gets:\n%s", got, want)
	}

	for _, bad := range []int32{gatherLen, -1} {
		idx := append(append(append([]int32(nil), gatherIdx[:5]...), bad), gatherIdx[5:]...)
		ref := newGatherRig(t, proto, skew)
		wx, wy, wz := outs(n + 1)
		wantMsg := panicOf(func() { getEach(ref, idx, wx, wy, wz) })
		g := newGatherRig(t, proto, skew)
		gx, gy, gz := outs(n + 1)
		r := reader(g, make([]PageRef, g.arrs[0].Pages()))
		gotMsg := panicOf(func() { r.Gather3(idx, gx, gy, gz) })
		num := strconv.Itoa(int(bad))
		if !strings.Contains(wantMsg, num) || !strings.Contains(gotMsg, num) {
			t.Fatalf("index %d: Get panicked %q, Gather3 %q; both must name the index", bad, wantMsg, gotMsg)
		}
		if !equalBits(gx, wx) || !equalBits(gy, wy) || !equalBits(gz, wz) {
			t.Fatalf("index %d: Gather3 loaded %v %v %v before panicking, Get %v %v %v", bad, gx, gy, gz, wx, wy, wz)
		}
		if got, want := g.state(), ref.state(); got != want {
			t.Fatalf("index %d: after Gather3's panic:\n%s\nafter Get's:\n%s", bad, got, want)
		}
	}
}

func panicOf(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return "no panic"
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
