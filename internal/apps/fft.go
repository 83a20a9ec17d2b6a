package apps

import (
	"fmt"
	"math"
	"math/bits"
)

// fft1D performs an in-place unitary radix-2 FFT (decimation in time)
// on x, whose length must be a power of two. Unitary scaling (1/sqrt n)
// keeps magnitudes stable across the repeated transforms of the 3D-FFT
// benchmark's iteration loop.
func fft1D(x []complex128) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("apps: fft length %d is not a power of two", n))
	}
	if n == 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Butterflies.
	for size := 2; size <= n; size *= 2 {
		ang := -2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wstep
			}
		}
	}
	// Unitary normalisation.
	scale := complex(1/math.Sqrt(float64(n)), 0)
	for i := range x {
		x[i] *= scale
	}
}

// fftPlan is fft1D for one length with everything that depends only on
// the length computed once: the bit-reversal swaps, every stage's
// twiddles and the unitary scale. The twiddles are the values fft1D's
// w takes, made by the same w *= wstep recurrence from the same wstep,
// so transform computes fft1D's bits (TestFFTPlanMatchesFFT1D) without
// its cos/sin per stage per call and its serial chain of twiddle
// multiplies. fft1D stays as the independent oracle FFT3DReference runs.
type fftPlan struct {
	n     int
	swaps []int32      // bit-reversal pairs i < j, flattened
	tw    []complex128 // the stage of half-width h at tw[h-1 : 2h-1]
	scale complex128
}

func newFFTPlan(n int) *fftPlan {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("apps: fft length %d is not a power of two", n))
	}
	p := &fftPlan{n: n, scale: complex(1/math.Sqrt(float64(n)), 0)}
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.tw = make([]complex128, 0, n-1)
	for size := 2; size <= n; size *= 2 {
		ang := -2 * math.Pi / float64(size)
		wstep := complex(math.Cos(ang), math.Sin(ang))
		w := complex(1, 0)
		for k := 0; k < size/2; k++ {
			p.tw = append(p.tw, w)
			w *= wstep
		}
	}
	return p
}

// transform is fft1D(x) for len(x) == p.n.
func (p *fftPlan) transform(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("apps: fft plan for length %d given %d", p.n, len(x)))
	}
	if p.n == 1 {
		return
	}
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	for h := 1; h < p.n; h *= 2 {
		tw := p.tw[h-1 : 2*h-1]
		for start := 0; start < p.n; start += 2 * h {
			lo, hi := x[start:start+h], x[start+h:start+2*h]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
	for i := range x {
		x[i] *= p.scale
	}
}
