package apps

import (
	"fmt"
	"math"

	"nowomp/internal/omp"
	"nowomp/internal/page"
	"nowomp/internal/shmem"
	"nowomp/internal/simtime"
)

// JacobiConfig parameterises the Jacobi kernel: a 5-point stencil over
// an NxN float32 grid with two arrays swapped each iteration. The
// paper runs 2500x2500 for 1000 iterations (47.8 MB of shared memory).
type JacobiConfig struct {
	N     int
	Iters int
	// CostPerElem is the calibrated per-element-update compute charge.
	CostPerElem simtime.Seconds
}

// DefaultJacobi returns the paper's Table 1 configuration.
func DefaultJacobi() JacobiConfig {
	return JacobiConfig{N: 2500, Iters: 1000, CostPerElem: JacobiCostPerElem}
}

// Scaled shrinks the problem linearly (dimension and iteration count)
// for fast experiment runs; scale 1.0 is the paper's size.
func (c JacobiConfig) Scaled(s float64) JacobiConfig {
	c.N = evenDim(scaleDim(c.N, s, 32))
	c.Iters = scaleDim(c.Iters, s, 4)
	return c
}

func (c JacobiConfig) validate() error {
	if c.N < 3 || c.Iters < 1 {
		return fmt.Errorf("apps: jacobi needs N >= 3 and Iters >= 1, got N=%d Iters=%d", c.N, c.Iters)
	}
	return nil
}

// jacobiInit gives the deterministic initial grid value at (i, j),
// with hot boundary rows so the interior evolves.
func jacobiInit(i, j, n int) float32 {
	if i == 0 || i == n-1 || j == 0 || j == n-1 {
		return 100
	}
	return float32((i*31+j*17)%97) / 97
}

// RunJacobi executes the kernel on the runtime and returns the
// measured result. The checksum is the float64 sum of the final grid
// in row-major order, exactly matching JacobiReference.
func RunJacobi(rt *omp.Runtime, cfg JacobiConfig) (Result, error) {
	if cfg.CostPerElem == 0 {
		cfg.CostPerElem = JacobiCostPerElem
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := cfg.N
	grids := make([]*shmem.Matrix[float32], 2)
	for g := 0; g < 2; g++ {
		mx, err := omp.AllocMatrix[float32](rt, fmt.Sprintf("jacobi.grid%d", g), n, n)
		if err != nil {
			return Result{}, err
		}
		grids[g] = mx
	}
	procs := rt.NProcs()

	// Initialisation: each process writes its block of both arrays
	// (first-touch distribution; the boundary must exist in both since
	// it is never rewritten).
	rt.For("jacobi.init", 0, n, func(p *omp.Proc, lo, hi int) {
		row := make([]float32, n)
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				row[j] = jacobiInit(i, j, n)
			}
			grids[0].WriteRow(p.Mem(), i, row)
			grids[1].WriteRow(p.Mem(), i, row)
		}
		p.ChargeUnits(2*(hi-lo)*n, InitCostPerElement)
	})

	// The four span lists and the output spans' change reports are
	// refilled row by row, so a process takes them at full capacity (a
	// row crosses at most spanCap-1 page breaks) and reuses them across
	// sweeps.
	spanCap := n*4/page.Size + 2
	var lists scratch[[]float32]
	var reports scratch[shmem.Changes]
	cur := 0
	for it := 0; it < cfg.Iters; it++ {
		src, dst := grids[cur], grids[1-cur]
		rt.For("jacobi.sweep", 1, n-1, func(p *omp.Proc, lo, hi int) {
			// Both sides of the stencil run on page memory: the three
			// source rows and the output row are collected as typed span
			// lists once per row (the source lists rotate like the old
			// staging buffers, so each row is resolved once), and the
			// stencil itself runs over equal-length chunks with no
			// staging copy, no decode pass and no per-element accessor.
			// Page events are identical to the staged loop: the same
			// rows fault in and twin inside the same construct body.
			// Each output element is stored once per sweep, so the
			// output row goes through write-once spans, whose pages
			// carry the stencil's report of the elements it changed as
			// their diff mask instead of a twin.
			mem := p.Mem()
			collectRead := func(spans [][]float32, i int) [][]float32 {
				spans = spans[:0]
				for j := 0; j < n; {
					s := src.ReadRowSpan(mem, i, j, n)
					spans = append(spans, s)
					j += len(s)
				}
				return spans
			}
			us, ms, ds, os := lists.get(spanCap), lists.get(spanCap), lists.get(spanCap), lists.get(spanCap)
			cs := reports.get(spanCap)
			us = collectRead(us, lo-1)
			ms = collectRead(ms, lo)
			for i := lo; i < hi; i++ {
				ds = collectRead(ds, i+1)
				os, cs = os[:0], cs[:0]
				for j := 0; j < n; {
					s, ch := dst.WriteRowSpanOnce(mem, i, j, n)
					os = append(os, s)
					cs = append(cs, ch)
					j += len(s)
				}
				jacobiRowSpans(os, cs, us, ms, ds, n)
				us, ms, ds = ms, ds, us
			}
			lists.put(us, ms, ds, os)
			reports.put(cs)
			p.ChargeUnits((hi-lo)*(n-2), cfg.CostPerElem)
		})
		cur = 1 - cur
	}

	// Timing and traffic are measured at the end of the computation;
	// the verification checksum below is not part of the run, matching
	// the paper's measurement window.
	res := measure(rt, "jacobi", procs)
	mp := rt.MasterProc()
	row := make([]float32, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		grids[cur].ReadRow(mp.Mem(), i, row)
		for _, v := range row {
			sum += float64(v)
		}
	}
	res.Checksum = sum
	return res, nil
}

// jacobiRowSpans computes one output row of the 5-point stencil from
// span lists of the row above (us), the row itself (ms) and the row
// below (ds) into the output span list (os), reporting every element
// whose bits it changes to the output span's Changes (cs, parallel to
// os). Chunks are bounded by the nearest page break of any of the four
// rows; within a chunk all four views are re-sliced to a common length
// and the interior goes to stencil5 in one call. The first and last
// grid columns copy the mid value, exactly like the staged loop did.
func jacobiRowSpans(os [][]float32, cs []shmem.Changes, us, ms, ds [][]float32, n int) {
	oi, ui, mi, di := 0, 0, 0, 0
	o, u, m, d := os[0], us[0], ms[0], ds[0]
	var left float32 // mid[j-1], carried across chunk boundaries
	for j := 0; j < n; {
		L := len(o)
		if len(u) < L {
			L = len(u)
		}
		if len(m) < L {
			L = len(m)
		}
		if len(d) < L {
			L = len(d)
		}
		o2, u2, m2, d2 := o[:L], u[:L], m[:L], d[:L]
		ch, k := cs[oi], len(os[oi])-len(o) // o2[0] is element k of its span
		// The right neighbour of the chunk's last column lives either
		// later in the mid span or at the head of the next one.
		var right float32
		if L < len(m) {
			right = m[L]
		} else if j+L < n {
			right = ms[mi+1][0]
		}
		q0, q1 := 0, L // columns of this chunk that hold stencil output
		if j == 0 {
			q0 = 1
		}
		if j+L == n {
			q1 = L - 1
		}
		// Columns 1..L-2 have both neighbours inside the chunk. The two
		// edge columns follow, once the stencil has brought their lines
		// into cache for the compare: the grid's first and last columns
		// copy the mid value, and a chunk edge is scalar Go.
		bits, at := ch.Bits()
		stencil5(o2, u2, d2, m2, bits, at+k+1)
		if j == 0 {
			storeOnce(o2, 0, m2[0], ch, k)
		}
		if j+L == n {
			storeOnce(o2, L-1, m2[L-1], ch, k)
		}
		if q0 == 0 && q0 < q1 {
			mr := right
			if L > 1 {
				mr = m2[1]
			}
			storeOnce(o2, 0, 0.25*(u2[0]+d2[0]+left+mr), ch, k)
		}
		if q1 == L && L >= 2 && L-1 >= q0 {
			storeOnce(o2, L-1, 0.25*(u2[L-1]+d2[L-1]+m2[L-2]+right), ch, k)
		}
		left = m2[L-1]
		j += L
		o = o[L:]
		if len(o) == 0 && oi+1 < len(os) {
			oi++
			o = os[oi]
		}
		u = u[L:]
		if len(u) == 0 && ui+1 < len(us) {
			ui++
			u = us[ui]
		}
		m = m[L:]
		if len(m) == 0 && mi+1 < len(ms) {
			mi++
			m = ms[mi]
		}
		d = d[L:]
		if len(d) == 0 && di+1 < len(ds) {
			di++
			d = ds[di]
		}
	}
}

// storeOnce stores v into s[q] through a write-once span, reporting
// element k+q of the span to ch if its bits change.
func storeOnce(s []float32, q int, v float32, ch shmem.Changes, k int) {
	if math.Float32bits(v) != math.Float32bits(s[q]) {
		ch.Set(k + q)
	}
	s[q] = v
}

// JacobiReference computes the checksum of an identical sequential
// run: same float32 arithmetic in the same per-element order, so the
// parallel result must match exactly.
func JacobiReference(cfg JacobiConfig) float64 {
	n := cfg.N
	a := make([]float32, n*n)
	b := make([]float32, n*n)
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		for j := range row {
			row[j] = jacobiInit(i, j, n)
		}
		copy(b[i*n:(i+1)*n], row)
	}
	src, dst := a, b
	for it := 0; it < cfg.Iters; it++ {
		for i := 1; i < n-1; i++ {
			// Views of the n-2 interior columns, all of one length, so
			// the element loop carries no bounds check.
			out := dst[i*n+1 : (i+1)*n-1]
			up := src[(i-1)*n+1 : i*n-1][:len(out)]
			down := src[(i+1)*n+1 : (i+2)*n-1][:len(out)]
			left := src[i*n : (i+1)*n-2][:len(out)]
			right := src[i*n+2 : (i+1)*n][:len(out)]
			for j := range out {
				out[j] = 0.25 * (up[j] + down[j] + left[j] + right[j])
			}
		}
		src, dst = dst, src
	}
	sum := 0.0
	for _, v := range src {
		sum += float64(v)
	}
	return sum
}
