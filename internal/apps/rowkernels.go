package apps

// The two float32 row primitives under Gauss's elimination and
// Jacobi's stencil, and the float64 partner sum under NBF's force loop.
// axpySub, stencil5 and nbfSum are Plan 9 assembly on amd64
// (rowkernels_amd64.s, SSE2 only, which GOAMD64=v1 guarantees, so
// nothing is probed or dispatched) and these Go loops on every other
// GOARCH (rowkernels_other.go). The Go loops are compiled everywhere
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

// axpySubGo computes dst[i] -= a*x[i]. The conversion stops the
// compiler fusing the multiply into the subtract on targets where it
// does that (arm64, ppc64le, s390x today; GOAMD64=v3 is allowed to):
// the product rounds to float32 first, as MULPS then SUBPS do, so every
// GOARCH computes the same bits.
func axpySubGo(dst, x []float32, a float32) {
	if len(x) > len(dst) {
		x = x[:len(dst)]
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] -= float32(a * v)
	}
}

// stencil5Go computes out[q] = 0.25*(((up[q]+down[q])+mid[q-1])+mid[q+1])
// for 1 <= q < n-1, n the shortest length; out[0] and out[n-1] are the
// caller's (a grid edge or a chunk edge whose neighbour lives in
// another span).
func stencil5Go(out, up, down, mid []float32) {
	n := min(len(out), len(up), len(down), len(mid))
	if n < 3 {
		return
	}
	out, up, down = out[1:n-1], up[1:n-1], down[1:n-1]
	left, right := mid[:n-2], mid[2:n]
	for q := range out {
		out[q] = 0.25 * (up[q] + down[q] + left[q] + right[q])
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

// AxpySub, AxpySubGo, Stencil5 and Stencil5Go name the primitives and
// their oracles for the root package's microbenchmarks, which cannot
// reach unexported names.
func AxpySub(dst, x []float32, a float32)     { axpySub(dst, x, a) }
func AxpySubGo(dst, x []float32, a float32)   { axpySubGo(dst, x, a) }
func Stencil5(out, up, down, mid []float32)   { stencil5(out, up, down, mid) }
func Stencil5Go(out, up, down, mid []float32) { stencil5Go(out, up, down, mid) }
