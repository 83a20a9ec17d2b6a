package apps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveDFT is the O(n^2) reference with unitary scaling.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s / complex(math.Sqrt(float64(n)), 0)
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		fft1D(got)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: fft[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTUnitaryEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	energy := func(v []complex128) float64 {
		e := 0.0
		for _, c := range v {
			e += real(c)*real(c) + imag(c)*imag(c)
		}
		return e
	}
	before := energy(x)
	fft1D(x)
	after := energy(x)
	if math.Abs(before-after) > 1e-9*before {
		t.Fatalf("unitary FFT must preserve energy: %g -> %g", before, after)
	}
}

func TestFFTDCComponent(t *testing.T) {
	x := make([]complex128, 16)
	for i := range x {
		x[i] = 1
	}
	fft1D(x)
	if cmplx.Abs(x[0]-complex(4, 0)) > 1e-12 { // 16/sqrt(16)
		t.Fatalf("DC bin = %v, want 4", x[0])
	}
	for i := 1; i < 16; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two length must panic")
		}
	}()
	fft1D(make([]complex128, 12))
}

// fftSpecials are the special parts the plan test laces its inputs
// with; the one NaN is the hardware's (see hwNaN64).
var fftSpecials = []float64{
	hwNaN64, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
}

// TestFFTPlanMatchesFFT1D holds a plan's transform to fft1D bit for
// bit at every power-of-two length the kernel can meet, through the
// same plan four times (a plan is reused and must keep no state): two
// random inputs spread over many binades, one with a single element
// special in both parts, one with about one part in eight special.
func TestFFTPlanMatchesFFT1D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := func() float64 { return fftSpecials[rng.Intn(len(fftSpecials))] }
	for n := 1; n <= 4096; n *= 2 {
		p := newFFTPlan(n)
		for round := 0; round < 4; round++ {
			x := make([]complex128, n)
			one := rng.Intn(n)
			for i := range x {
				re, im := rng.NormFloat64()*math.Ldexp(1, rng.Intn(41)-20), rng.NormFloat64()
				switch {
				case round == 2 && i == one:
					re, im = special(), special()
				case round == 3 && rng.Intn(8) == 0:
					re = special()
				case round == 3 && rng.Intn(8) == 0:
					im = special()
				}
				x[i] = complex(re, im)
			}
			want := append([]complex128(nil), x...)
			fft1D(want)
			p.transform(x)
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
					t.Fatalf("n=%d round %d: plan[%d] = %v, fft1D %v", n, round, i, x[i], want[i])
				}
			}
		}
	}
}

func TestFFTPlanRejectsWrongLengths(t *testing.T) {
	for _, f := range []func(){
		func() { newFFTPlan(0) },
		func() { newFFTPlan(12) },
		func() { newFFTPlan(8).transform(make([]complex128, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want a panic")
				}
			}()
			f()
		}()
	}
}

func TestFFTLengthOne(t *testing.T) {
	x := []complex128{3 + 4i}
	fft1D(x)
	if x[0] != 3+4i {
		t.Fatalf("length-1 FFT changed the value: %v", x[0])
	}
}
