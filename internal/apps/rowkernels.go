package apps

import "math"

// The two float32 row primitives under Gauss's elimination and
// Jacobi's stencil, and the float64 partner sum under NBF's force loop.
// On amd64, axpySub and stencil5 are AVX2 assembly (rowkernels_amd64.s,
// sixteen lanes an iteration) where a CPUID probe at package init finds
// AVX2 and an OS that saves its registers, and these Go loops where it
// does not; nbfSum is SSE2 assembly on every amd64 (the GOAMD64=v1
// baseline), because a four-lane AVX2 sum measured no faster: its
// divide has the same throughput per lane. Every other GOARCH runs the
// Go loops (rowkernels_other.go). The Go loops are compiled everywhere
// under their own names as the oracle the assembly is held to bit for
// bit (TestRowKernelsMatchGo, TestNBFSumMatchesGo): a packed IEEE
// operation rounds each lane exactly as its scalar form, nothing is
// fused and the association order is the one written here.
//
// All of them work on the common prefix of their arguments, so a short
// argument shortens the call instead of reaching past a slice; dst and
// out must not overlap an input. Kernels call them once per
// page-bounded chunk (at most page.Size/4 elements, ~100 ns) or once
// per atom (one partner list, 80 partners at the paper's size), which
// keeps a NOSPLIT leaf from holding off a stop-the-world.
//
// axpySub and stencil5 also report the elements they change, for the
// write-once spans Gauss and Jacobi store through (dsm.Host.
// WriteSpanOnce): bit at+k of chg is set when the k-th element the
// call writes gets bits different from those it replaced. The compare
// is of bits, not of floats — -0 replacing +0 is a change and a NaN
// replacing the same NaN is not — because the report stands in for
// page.Scan's word compare. Bits are only ever set, never cleared, and
// chg bounds the call like any other argument: one element per bit
// from at on.
//
// Mergesort's merge has an amd64 loop too, mergeBits
// (rowkernels_amd64.go), which compares keys as bit patterns in
// general-purpose registers, so no vector width bears on it; its
// oracle, and the merge everywhere else, is mergeSpan (mergesort.go).

// axpySubGo computes dst[i] -= a*x[i] for i below the shortest of
// len(dst), len(x) and 64*len(chg)-at, setting bit at+i of chg when
// dst[i]'s bits change. The conversion stops the compiler fusing the
// multiply into the subtract on the targets where go1.24 fuses (arm64)
// or may (ppc64le, s390x); on amd64 it fuses nothing, at GOAMD64=v1 or
// v3. The product rounds to float32 first, as MULPS then SUBPS do, so
// every GOARCH computes the same bits.
func axpySubGo(dst, x []float32, a float32, chg []uint64, at int) {
	n := min(len(dst), len(x), 64*len(chg)-at)
	if n <= 0 {
		return
	}
	dst, x = dst[:n], x[:n]
	for i, v := range x {
		old := dst[i]
		dst[i] = old - float32(a*v)
		if math.Float32bits(dst[i]) != math.Float32bits(old) {
			b := at + i
			chg[b>>6] |= 1 << uint(b&63)
		}
	}
}

// stencil5Go computes out[q] = 0.25*(((up[q]+down[q])+mid[q-1])+mid[q+1])
// for 1 <= q < n-1, n the shortest of the four lengths and
// 64*len(chg)-at+2, setting bit at+q-1 of chg when out[q]'s bits
// change; out[0] and out[n-1] are the caller's (a grid edge or a chunk
// edge whose neighbour lives in another span).
func stencil5Go(out, up, down, mid []float32, chg []uint64, at int) {
	n := min(len(out), len(up), len(down), len(mid), 64*len(chg)-at+2)
	if n < 3 {
		return
	}
	out, up, down = out[1:n-1], up[1:n-1], down[1:n-1]
	left, right := mid[:n-2], mid[2:n]
	for q := range out {
		old := out[q]
		out[q] = 0.25 * (up[q] + down[q] + left[q] + right[q])
		if math.Float32bits(out[q]) != math.Float32bits(old) {
			b := at + q
			chg[b>>6] |= 1 << uint(b&63)
		}
	}
}

// nbfSumGo returns the summed force of the partners at (xs[j], ys[j],
// zs[j]) on the atom at (xi, yi, zi): nbfForce of each partner in
// order, each axis summed from +0, j below the shortest length.
func nbfSumGo(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64) {
	n := min(len(xs), len(ys), len(zs))
	for j := 0; j < n; j++ {
		fx, fy, fz := nbfForce(xi, yi, zi, xs[j], ys[j], zs[j])
		sx += fx
		sy += fy
		sz += fz
	}
	return sx, sy, sz
}
