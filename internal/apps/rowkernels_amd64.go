package apps

// axpySub computes dst[i] -= a*x[i] over the common prefix of dst, x
// and chg's bits from at, eight lanes an iteration, and reports the
// elements it changed in chg. See rowkernels.go for the contract and
// axpySubGo for the oracle.
//
//go:noescape
func axpySub(dst, x []float32, a float32, chg []uint64, at int)

// stencil5 computes the interior of one 5-point stencil chunk, four
// lanes an iteration, and reports the elements it changed in chg. See
// rowkernels.go for the contract and stencil5Go for the oracle.
//
//go:noescape
func stencil5(out, up, down, mid []float32, chg []uint64, at int)

// nbfSum sums the forces of one atom's partners, two partners an
// iteration. See rowkernels.go for the contract and nbfSumGo for the
// oracle.
//
//go:noescape
func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64)
