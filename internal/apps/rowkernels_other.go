//go:build !amd64

package apps

func axpySub(dst, x []float32, a float32)   { axpySubGo(dst, x, a) }
func stencil5(out, up, down, mid []float32) { stencil5Go(out, up, down, mid) }
func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64) {
	return nbfSumGo(xi, yi, zi, xs, ys, zs)
}
