package apps

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// BenchmarkAxpySub and BenchmarkStencil5 time the two float32 row
// primitives under Gauss's elimination and Jacobi's stencil on one
// page-sized chunk (1024 elements, L1-resident), the platform's
// implementation beside the Go loop it is held to, each reporting the
// elements it changed into a 16-word bitmap; ns/op over 1024 is ns per
// element, and SetBytes counts the output row.
func BenchmarkAxpySub(b *testing.B) {
	for _, k := range []struct {
		name string
		f    func(dst, x []float32, a float32, chg []uint64, at int)
	}{{"impl", axpySub}, {"go", axpySubGo}} {
		b.Run(k.name, func(b *testing.B) {
			dst, x := rowChunk(0), rowChunk(1)
			var chg [16]uint64
			b.SetBytes(int64(4 * len(dst)))
			for b.Loop() {
				// 1e-9 keeps dst finite for any b.N.
				k.f(dst, x, 1e-9, chg[:], 0)
			}
		})
	}
}

func BenchmarkStencil5(b *testing.B) {
	for _, k := range []struct {
		name string
		f    func(out, up, down, mid []float32, chg []uint64, at int)
	}{{"impl", stencil5}, {"go", stencil5Go}} {
		b.Run(k.name, func(b *testing.B) {
			out, up, down, mid := rowChunk(0), rowChunk(1), rowChunk(2), rowChunk(3)
			var chg [16]uint64
			b.SetBytes(int64(4 * len(out)))
			for b.Loop() {
				k.f(out, up, down, mid, chg[:], 0)
			}
		})
	}
}

// BenchmarkMergeSpan times mergesort's merge of two sorted runs of
// 256 Ki keys in [0,1), cut into 512-key page spans as the kernel's
// WriteSpan loop cuts them: the bit-pattern merge beside the float
// merge it is held to. ns/op over 512 Ki is ns per key.
func BenchmarkMergeSpan(b *testing.B) {
	const half = 1 << 18
	left, right := sortKeys(half, 1), sortKeys(half, 2)
	slices.Sort(left)
	slices.Sort(right)
	out := make([]float64, 2*half)
	for _, k := range []struct {
		name string
		f    func(out, left, right []float64, i, j int) (int, int)
	}{{"impl", mergeBits}, {"go", mergeSpan}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(out)))
			for b.Loop() {
				i, j := 0, 0
				for q := 0; q < len(out); q += 512 {
					i, j = k.f(out[q:q+512], left, right, i, j)
				}
			}
		})
	}
}

// BenchmarkSortLeaf times one mergesort leaf, 8 Ki keys in [0,1)
// copied in and sorted: the radix sort beside sort.Float64s, whose
// bits it reproduces.
func BenchmarkSortLeaf(b *testing.B) {
	keys := sortKeys(1<<13, 3)
	buf, aux := make([]float64, len(keys)), make([]float64, len(keys))
	for _, k := range []struct {
		name string
		f    func(a []float64)
	}{{"impl", func(a []float64) { sortFloat64s(a, aux) }}, {"sort", sort.Float64s}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(buf)))
			for b.Loop() {
				copy(buf, keys)
				k.f(buf)
			}
		})
	}
}

// sortKeys returns n keys in [0,1) from a fixed seed.
func sortKeys(n int, seed uint64) []float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64()
	}
	return v
}

// rowChunk returns one page of finite, normal float32s.
func rowChunk(seed int) []float32 {
	v := make([]float32, 1024)
	for i := range v {
		v[i] = 1 + float32((i*31+seed*17)%97)/97
	}
	return v
}
