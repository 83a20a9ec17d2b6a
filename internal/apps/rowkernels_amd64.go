package apps

// axpySub computes dst[i] -= a*x[i] over the common prefix of dst and
// x, eight lanes an iteration. See rowkernels.go for the contract and
// axpySubGo for the oracle.
//
//go:noescape
func axpySub(dst, x []float32, a float32)

// stencil5 computes the interior of one 5-point stencil chunk, four
// lanes an iteration. See rowkernels.go for the contract and
// stencil5Go for the oracle.
//
//go:noescape
func stencil5(out, up, down, mid []float32)

// nbfSum sums the forces of one atom's partners, two partners an
// iteration. See rowkernels.go for the contract and nbfSumGo for the
// oracle.
//
//go:noescape
func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64)
