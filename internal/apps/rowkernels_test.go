package apps

import (
	"encoding/binary"
	"math"
	"testing"
)

// The assembly row kernels are held to their Go oracles bit for bit.
// On a GOARCH without assembly both names are the same loop and the
// comparison is trivial; the canary checks still run.

// hwNaN is the one NaN the inputs carry: the quiet NaN SSE itself
// produces for Inf-Inf. When both operands of an add are NaNs the
// hardware returns the first one's payload, and the compiler is free to
// commute the oracle's operands, so payloads are comparable only when
// there is a single one. Jacobi and Gauss never produce a NaN; this is
// about the test, not the kernels.
var hwNaN = math.Float32frombits(0xffc00000)

var rowSpecials = []float32{
	hwNaN,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	0, math.Float32frombits(0x80000000), // +0, -0
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), // largest denormals
	math.Float32frombits(0x00800000), // smallest normal
	math.MaxFloat32, -math.MaxFloat32,
}

// rowCanary fills everything a kernel must not write.
var rowCanary = math.Float32frombits(0xc0de1234)

// rowValues returns n deterministic inputs for stream s: mostly
// distinct finite values (so a one-lane slip shows), every fifth or so
// a special.
func rowValues(n, s int) []float32 {
	v := make([]float32, n)
	x := uint32(2463534242 + 977*s + n)
	for i := range v {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if x%5 == 0 {
			v[i] = rowSpecials[(x>>8)%uint32(len(rowSpecials))]
		} else {
			v[i] = (float32(x>>8)/float32(1<<24) - 0.5) * float32(int(1)<<(x%24))
		}
	}
	return v
}

// place copies vals into a fresh canary-filled backing array, off
// elements past a 4-element guard, and returns the backing and the view
// of the copy.
func place(vals []float32, off int) (back, view []float32) {
	back = make([]float32, 4+off+len(vals)+4)
	for i := range back {
		back[i] = rowCanary
	}
	view = back[4+off : 4+off+len(vals) : 4+off+len(vals)]
	copy(view, vals)
	return back, view
}

// sameBits reports the first index at which a and b differ as bit
// patterns, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// guardsIntact reports whether everything in back outside
// [4+off, 4+off+n) still holds the canary.
func guardsIntact(back []float32, off, n int) bool {
	for i, v := range back {
		if (i < 4+off || i >= 4+off+n) && math.Float32bits(v) != math.Float32bits(rowCanary) {
			return false
		}
	}
	return true
}

// checkAxpy runs axpySub and axpySubGo on identical copies of dst at
// element offset off (x at a different offset) and fails on any
// differing bit or touched guard.
func checkAxpy(t testing.TB, dst, x []float32, a float32, off int) {
	t.Helper()
	n := len(dst)
	gotBack, got := place(dst, off)
	wantBack, want := place(dst, off)
	xBack, xv := place(x, (off+1)%4)
	axpySub(got, xv, a)
	axpySubGo(want, xv, a)
	if i := sameBits(gotBack, wantBack); i >= 0 {
		t.Fatalf("axpySub n=%d off=%d a=%v: backing[%d] = %#08x, Go loop %#08x (dst index %d)",
			n, off, a, i, math.Float32bits(gotBack[i]), math.Float32bits(wantBack[i]), i-4-off)
	}
	if !guardsIntact(gotBack, off, n) || !guardsIntact(xBack, (off+1)%4, len(x)) {
		t.Fatalf("axpySub n=%d off=%d: wrote outside dst", n, off)
	}
	if i := sameBits(xv, x); i >= 0 {
		t.Fatalf("axpySub n=%d off=%d: x[%d] modified", n, off, i)
	}
}

// checkStencil does the same for stencil5 and stencil5Go. The output
// starts as canaries, so out[0], out[n-1] and every out of a call too
// short to have an interior are guards too.
func checkStencil(t testing.TB, up, down, mid []float32, off int) {
	t.Helper()
	n := len(mid)
	blank := make([]float32, n)
	for i := range blank {
		blank[i] = rowCanary
	}
	gotBack, got := place(blank, off)
	wantBack, want := place(blank, off)
	_, uv := place(up, (off+1)%4)
	_, dv := place(down, (off+2)%4)
	_, mv := place(mid, (off+3)%4)
	stencil5(got, uv, dv, mv)
	stencil5Go(want, uv, dv, mv)
	if i := sameBits(gotBack, wantBack); i >= 0 {
		t.Fatalf("stencil5 n=%d off=%d: backing[%d] = %#08x, Go loop %#08x (out index %d)",
			n, off, i, math.Float32bits(gotBack[i]), math.Float32bits(wantBack[i]), i-4-off)
	}
	lo, hi := 1, n-1 // the interior: the only elements a call may write
	if n < 3 {
		lo, hi = 0, 0
	}
	if !guardsIntact(gotBack, off+lo, hi-lo) {
		t.Fatalf("stencil5 n=%d off=%d: wrote outside out[1:n-1]", n, off)
	}
	if sameBits(uv, up) >= 0 || sameBits(dv, down) >= 0 || sameBits(mv, mid) >= 0 {
		t.Fatalf("stencil5 n=%d off=%d: an input was modified", n, off)
	}
}

// axpyScalars are the multipliers the exhaustive test cycles through.
var axpyScalars = []float32{
	1.5, -0.37, 3.0517578e-05, 0, math.Float32frombits(0x80000000),
	float32(math.Inf(1)), hwNaN, math.SmallestNonzeroFloat32, math.MaxFloat32,
}

// TestRowKernelsMatchGo covers every length through two pages and
// three elements (every combination of 8-lane body, 4-lane step and
// scalar tail, twice over) at every start alignment.
func TestRowKernelsMatchGo(t *testing.T) {
	for n := 0; n <= 2051; n++ {
		dst, x := rowValues(n, 0), rowValues(n, 1)
		up, down, mid := rowValues(n, 2), rowValues(n, 3), rowValues(n, 4)
		for off := 0; off < 4; off++ {
			checkAxpy(t, dst, x, axpyScalars[(n+off)%len(axpyScalars)], off)
			checkStencil(t, up, down, mid, off)
		}
	}
}

// TestRowKernelsCommonPrefix pins the contract for arguments of
// unequal length: the shortest one bounds the call.
func TestRowKernelsCommonPrefix(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 40} {
		vals := rowValues(n+5, 5)
		// dst longer than x: only dst[:n] may change.
		back, dst := place(vals, 1)
		ref := append([]float32(nil), vals...)
		axpySub(dst, vals[:n], 2)
		axpySubGo(ref, vals[:n], 2)
		if i := sameBits(dst, ref); i >= 0 || !guardsIntact(back, 1, len(vals)) {
			t.Fatalf("axpySub short x, n=%d: differs at %d or wrote outside dst", n, i)
		}
		if i := sameBits(dst[n:], vals[n:]); i >= 0 {
			t.Fatalf("axpySub short x, n=%d: dst[%d] past the prefix changed", n, n+i)
		}
		// x longer than dst.
		back, dst = place(vals[:n], 2)
		ref = append([]float32(nil), vals[:n]...)
		axpySub(dst, vals, 2)
		axpySubGo(ref, vals, 2)
		if i := sameBits(dst, ref); i >= 0 || !guardsIntact(back, 2, n) {
			t.Fatalf("axpySub short dst, n=%d: differs at %d or wrote outside dst", n, i)
		}
		// Each stencil argument in turn is the short one.
		for short := 0; short < 4; short++ {
			args := [4][]float32{vals, rowValues(n+5, 6), rowValues(n+5, 7), rowValues(n+5, 8)}
			args[short] = args[short][:n]
			back, out := place(args[0], 3)
			ref := append([]float32(nil), args[0]...)
			stencil5(out, args[1], args[2], args[3])
			stencil5Go(ref, args[1], args[2], args[3])
			if i := sameBits(out, ref); i >= 0 || !guardsIntact(back, 3, len(out)) {
				t.Fatalf("stencil5 short arg %d, n=%d: differs at %d or wrote outside out", short, n, i)
			}
			if n >= 1 {
				if i := sameBits(out[n-1:], args[0][n-1:]); i >= 0 {
					t.Fatalf("stencil5 short arg %d, n=%d: out[%d] past the interior changed", short, n, n-1+i)
				}
			}
		}
	}
}

// fuzzFloats decodes little-endian float32s, at most max of them. Any
// NaN becomes hwNaN (see there).
func fuzzFloats(data []byte, max int) []float32 {
	n := min(len(data)/4, max)
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		if v[i] != v[i] {
			v[i] = hwNaN
		}
	}
	return v
}

// fuzzBytes encodes streams of the exhaustive test's inputs as one
// seed: n elements of each stream, back to back.
func fuzzBytes(n int, streams ...int) []byte {
	var b []byte
	for _, s := range streams {
		for _, v := range rowValues(n, s) {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
	}
	return b
}

// fuzzSeedLengths straddle every loop boundary of the assembly.
var fuzzSeedLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 1023, 1024, 1025, 2051}

func FuzzAxpySub(f *testing.F) {
	for i, n := range fuzzSeedLengths {
		f.Add(fuzzBytes(n, 0, 1), uint8(i), math.Float32bits(axpyScalars[i%len(axpyScalars)]))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8, abits uint32) {
		v := fuzzFloats(data, 2*2051)
		n := len(v) / 2
		a := math.Float32frombits(abits)
		if a != a {
			a = hwNaN
		}
		checkAxpy(t, v[:n], v[n:2*n], a, int(off%4))
	})
}

func FuzzStencil5(f *testing.F) {
	for i, n := range fuzzSeedLengths {
		f.Add(fuzzBytes(n, 2, 3, 4), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		v := fuzzFloats(data, 3*2051)
		n := len(v) / 3
		checkStencil(t, v[:n], v[n:2*n], v[2*n:3*n], int(off%4))
	})
}
