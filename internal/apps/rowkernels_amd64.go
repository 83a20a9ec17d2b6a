package apps

// axpySub computes dst[i] -= a*x[i] over the common prefix of dst, x
// and chg's bits from at, eight lanes an iteration, and reports the
// elements it changed in chg. See rowkernels.go for the contract and
// axpySubGo for the oracle.
//
//go:noescape
func axpySub(dst, x []float32, a float32, chg []uint64, at int)

// stencil5 computes the interior of one 5-point stencil chunk, eight
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

// mergeBits is mergeSpan for keys that order as their bit patterns
// (non-negative and not NaN, the keys sortFloat64s radix-sorts): the
// assembly loop compares the patterns as integers, and the tail copy
// is the same as mergeSpan's. On such keys it gives mergeSpan's bits
// and cursors (TestMergeSpanMatchesSwitch, FuzzMerge).
func mergeBits(out, left, right []float64, i, j int) (int, int) {
	a, b := mergeBitsLoop(out, left[i:], right[j:])
	i, j = i+a, j+b
	if q := a + b; q < len(out) {
		if i < len(left) {
			i += copy(out[q:], left[i:])
		} else {
			j += copy(out[q:], right[j:])
		}
	}
	return i, j
}

// mergeBitsLoop merges left and right into out until out is full or
// one side runs out, taking left's key when its bit pattern is at most
// right's, and returns how many keys it took from each side.
//
//go:noescape
func mergeBitsLoop(out, left, right []float64) (a, b int)
