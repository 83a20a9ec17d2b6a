//go:build !amd64

package apps

func axpySub(dst, x []float32, a float32)   { axpySubGo(dst, x, a) }
func stencil5(out, up, down, mid []float32) { stencil5Go(out, up, down, mid) }
