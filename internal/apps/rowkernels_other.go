//go:build !amd64

package apps

// useAVX2 is never set off amd64; the tests' AVX2 subtests skip.
var useAVX2 bool

func axpySub(dst, x []float32, a float32, chg []uint64, at int) { axpySubGo(dst, x, a, chg, at) }
func stencil5(out, up, down, mid []float32, chg []uint64, at int) {
	stencil5Go(out, up, down, mid, chg, at)
}
func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64) {
	return nbfSumGo(xi, yi, zi, xs, ys, zs)
}

// mergeBits has no integer loop off amd64: the float merge gives the
// same bits on the keys it is called with.
func mergeBits(out, left, right []float64, i, j int) (int, int) {
	return mergeSpan(out, left, right, i, j)
}
