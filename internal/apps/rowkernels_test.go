package apps

import (
	"encoding/binary"
	"math"
	"testing"
)

// The assembly row kernels are held to their Go oracles bit for bit.
// Every test runs twice (rowPaths): on the AVX2 assembly, skipped where
// the CPU probe found none, and on the fallback dispatch, where
// axpySub and stencil5 are their oracles and the comparison is
// trivial but the canary and change-report checks still run.

// rowPath names the path axpySub and stencil5 take now.
func rowPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "fallback"
}

// onRowPaths calls f once on each path the host can take, AVX2 first
// where the probe found it, and restores the probe's answer.
func onRowPaths(f func()) {
	probed := useAVX2
	defer func() { useAVX2 = probed }()
	for _, avx := range []bool{true, false} {
		if avx && !probed {
			continue
		}
		useAVX2 = avx
		f()
	}
}

// rowPaths runs f as one subtest a path: "avx2", which skips where the
// probe found no AVX2, and "fallback".
func rowPaths(t *testing.T, f func(t *testing.T)) {
	probed := useAVX2
	defer func() { useAVX2 = probed }()
	t.Run("avx2", func(t *testing.T) {
		if !probed {
			t.Skip("the CPU probe found no AVX2")
		}
		useAVX2 = true
		f(t)
	})
	t.Run("fallback", func(t *testing.T) {
		useAVX2 = false
		f(t)
	})
}

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
	x := uint32(2463534242) + uint32(977*s+n)
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

// chgGuard fills the change bitmaps the kernels are handed: they only
// set bits, so every bit a call must leave alone keeps this pattern,
// and a word past the bitmap's end is a guard.
const chgGuard uint64 = 0x5a5a_c3c3_0ff0_9669

// chgBitmap returns a change bitmap for n elements from bit at,
// pre-set to chgGuard, and the backing with one guard word after it.
func chgBitmap(at, n int) (back, chg []uint64) {
	w := (at + n + 63) / 64
	back = make([]uint64, w+1)
	for i := range back {
		back[i] = chgGuard
	}
	return back, back[:w:w]
}

// checkChanges holds a kernel's change bitmap (starting as chgGuard)
// to the bits it stored: bit at+k must be chgGuard's bit or, where the
// k-th written element's bits differ from before, set; every other
// bit, and the guard word after the bitmap, must be untouched.
func checkChanges(t testing.TB, name string, back []uint64, at int, before, after []float32, off int) {
	t.Helper()
	for b := 0; b < 64*len(back); b++ {
		want := chgGuard>>uint(b%64)&1 != 0
		k := b - at
		if k >= 0 && k < len(before) && math.Float32bits(before[k]) != math.Float32bits(after[k]) {
			want = true
		}
		if got := back[b/64]>>uint(b%64)&1 != 0; got != want {
			t.Fatalf("%s n=%d off=%d at=%d: change bit %d (element %d) = %v, want %v",
				name, len(before), off, at, b, k, got, want)
		}
	}
}

// checkAxpy runs axpySub and axpySubGo on identical copies of dst at
// element offset off (x at a different offset), reporting from bit at,
// and fails on any differing bit or touched guard, or on a change
// bitmap that differs from the bits they stored.
func checkAxpy(t testing.TB, dst, x []float32, a float32, off, at int) {
	t.Helper()
	n := len(dst)
	gotBack, got := place(dst, off)
	wantBack, want := place(dst, off)
	xBack, xv := place(x, (off+1)%4)
	gotChgBack, gotChg := chgBitmap(at, n)
	wantChgBack, wantChg := chgBitmap(at, n)
	axpySub(got, xv, a, gotChg, at)
	axpySubGo(want, xv, a, wantChg, at)
	if i := sameBits(gotBack, wantBack); i >= 0 {
		t.Fatalf("axpySub (%s) n=%d off=%d a=%v: backing[%d] = %#08x, Go loop %#08x (dst index %d)",
			rowPath(), n, off, a, i, math.Float32bits(gotBack[i]), math.Float32bits(wantBack[i]), i-4-off)
	}
	if !guardsIntact(gotBack, off, n) || !guardsIntact(xBack, (off+1)%4, len(x)) {
		t.Fatalf("axpySub (%s) n=%d off=%d: wrote outside dst", rowPath(), n, off)
	}
	if i := sameBits(xv, x); i >= 0 {
		t.Fatalf("axpySub (%s) n=%d off=%d: x[%d] modified", rowPath(), n, off, i)
	}
	checkChanges(t, "axpySub ("+rowPath()+")", gotChgBack, at, dst, got, off)
	checkChanges(t, "axpySubGo", wantChgBack, at, dst, want, off)
}

// checkStencil does the same for stencil5 and stencil5Go, on an output
// that starts as out0 (nil: all canaries, so out[0], out[n-1] and every
// out of a call too short to have an interior are guards too).
func checkStencil(t testing.TB, up, down, mid, out0 []float32, off, at int) {
	t.Helper()
	n := len(mid)
	if out0 == nil {
		out0 = make([]float32, n)
		for i := range out0 {
			out0[i] = rowCanary
		}
	}
	gotBack, got := place(out0, off)
	wantBack, want := place(out0, off)
	_, uv := place(up, (off+1)%4)
	_, dv := place(down, (off+2)%4)
	_, mv := place(mid, (off+3)%4)
	lo, hi := 1, n-1 // the interior: the only elements a call may write
	if n < 3 {
		lo, hi = 0, 0
	}
	gotChgBack, gotChg := chgBitmap(at, hi-lo)
	wantChgBack, wantChg := chgBitmap(at, hi-lo)
	stencil5(got, uv, dv, mv, gotChg, at)
	stencil5Go(want, uv, dv, mv, wantChg, at)
	if i := sameBits(gotBack, wantBack); i >= 0 {
		t.Fatalf("stencil5 (%s) n=%d off=%d: backing[%d] = %#08x, Go loop %#08x (out index %d)",
			rowPath(), n, off, i, math.Float32bits(gotBack[i]), math.Float32bits(wantBack[i]), i-4-off)
	}
	if !guardsIntact(gotBack, off, n) || sameBits(got[:lo], out0[:lo]) >= 0 || sameBits(got[hi:], out0[hi:]) >= 0 {
		t.Fatalf("stencil5 (%s) n=%d off=%d: wrote outside out[1:n-1]", rowPath(), n, off)
	}
	if sameBits(uv, up) >= 0 || sameBits(dv, down) >= 0 || sameBits(mv, mid) >= 0 {
		t.Fatalf("stencil5 (%s) n=%d off=%d: an input was modified", rowPath(), n, off)
	}
	checkChanges(t, "stencil5 ("+rowPath()+")", gotChgBack, at, out0[lo:hi], got[lo:hi], off)
	checkChanges(t, "stencil5Go", wantChgBack, at, out0[lo:hi], want[lo:hi], off)
}

// axpyScalars are the multipliers the exhaustive test cycles through.
var axpyScalars = []float32{
	1.5, -0.37, 3.0517578e-05, 0, math.Float32frombits(0x80000000),
	float32(math.Inf(1)), hwNaN, math.SmallestNonzeroFloat32, math.MaxFloat32,
}

// TestRowKernelsMatchGo covers every length through two pages and
// three elements (every combination of 16-lane body, 8- and 4-lane
// steps and scalar tail, many times over) at every start alignment,
// reporting from every bit of a byte and across a word's end.
func TestRowKernelsMatchGo(t *testing.T) {
	rowPaths(t, func(t *testing.T) {
		for n := 0; n <= 2051; n++ {
			dst, x := rowValues(n, 0), rowValues(n, 1)
			up, down, mid := rowValues(n, 2), rowValues(n, 3), rowValues(n, 4)
			for off := 0; off < 4; off++ {
				at := (n + 5*off) % 72
				checkAxpy(t, dst, x, axpyScalars[(n+off)%len(axpyScalars)], off, at)
				checkStencil(t, up, down, mid, nil, off, at)
			}
		}
	})
}

// TestRowKernelsShortLengths runs every length from 1 to 42 (every
// stencil interior from 0 to 40 columns: each way the head, the 16-lane
// loop, the 8- and 4-lane steps and the scalar tail combine below three
// loop turns) from every bit offset of a bitmap word and at every
// element alignment.
func TestRowKernelsShortLengths(t *testing.T) {
	rowPaths(t, func(t *testing.T) {
		for n := 1; n <= 42; n++ {
			dst, x := rowValues(n, 21), rowValues(n, 22)
			up, down, mid := rowValues(n, 23), rowValues(n, 24), rowValues(n, 25)
			for at := 0; at < 64; at++ {
				for off := 0; off < 4; off++ {
					checkAxpy(t, dst, x, axpyScalars[(n+at+off)%len(axpyScalars)], off, at)
					checkStencil(t, up, down, mid, nil, off, at)
				}
			}
		}
	})
}

// TestRowKernelsNaNPayloads pins the AVX2 kernels' operand order,
// which the oracles cannot: when both operands of an x86 add, subtract
// or multiply are NaNs the result carries the first source's payload,
// and the compiler may commute the oracle's operands. The kernels keep
// the order of the SSE2 code they replace — stencil5 adds up, down, the
// left and the right neighbour in that order and multiplies the sum by
// 0.25, axpySub multiplies x by a and subtracts the product from dst —
// so a result's payload is the first NaN's in that order. The inputs
// are quiet NaNs with distinct payloads and signs in about half the
// operands, so every lane of every step meets every pair of NaN
// operands over the lengths 1 to 42.
func TestRowKernelsNaNPayloads(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU probe found no AVX2")
	}
	firstNaN := func(vs ...float32) (float32, bool) {
		for _, v := range vs {
			if v != v {
				return v, true
			}
		}
		return 0, false
	}
	r := uint32(88172645)
	operand := func(id uint32) float32 {
		r ^= r << 13
		r ^= r >> 17
		r ^= r << 5
		if r&1 == 0 {
			return 1.5 + float32(r%64)
		}
		return math.Float32frombits(r&0x8000_0000 | 0x7fc0_0000 | id&0x3f_ffff)
	}
	for round := 0; round < 24; round++ {
		for n := 1; n <= 42; n++ {
			dst, x, up, down, mid := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
			for i := 0; i < n; i++ {
				id := uint32(round<<12 | i<<3)
				dst[i], x[i], up[i], down[i], mid[i] = operand(id|1), operand(id|2), operand(id|3), operand(id|4), operand(id|5)
			}
			a := operand(uint32(round<<12 | 6))

			want := append([]float32(nil), dst...)
			axpySubGo(want, x, a, make([]uint64, 1), 0)
			for i := range want {
				if v, ok := firstNaN(dst[i], x[i], a); ok {
					want[i] = v
				}
			}
			got := append([]float32(nil), dst...)
			axpySub(got, x, a, make([]uint64, 1), 0)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("axpySub round %d n=%d: dst[%d] = %#08x, want %#08x (dst %#08x, x %#08x, a %#08x)",
					round, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]),
					math.Float32bits(dst[i]), math.Float32bits(x[i]), math.Float32bits(a))
			}

			want = make([]float32, n)
			stencil5Go(want, up, down, mid, make([]uint64, 1), 0)
			for q := 1; q < n-1; q++ {
				if v, ok := firstNaN(up[q], down[q], mid[q-1], mid[q+1]); ok {
					want[q] = v
				}
			}
			got = make([]float32, n)
			stencil5(got, up, down, mid, make([]uint64, 1), 0)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("stencil5 round %d n=%d: out[%d] = %#08x, want %#08x (up %#08x, down %#08x, left %#08x, right %#08x)",
					round, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]),
					math.Float32bits(up[i]), math.Float32bits(down[i]), math.Float32bits(mid[max(i-1, 0)]), math.Float32bits(mid[min(i+1, n-1)]))
			}
		}
	}
}

// TestRowKernelsReportChanges aims the change report at the values
// where a float compare and a bit compare part ways, at every length
// to 257 (four 64-bit words of report and a tail) and every alignment:
// about a third of the elements are stored back unchanged, and the
// rest include -0 replaced by +0 and the reverse, NaN replaced by the
// same NaN (unchanged) and by another payload (changed), and
// denormals.
func TestRowKernelsReportChanges(t *testing.T) {
	rowPaths(t, func(t *testing.T) {
		otherNaN := math.Float32frombits(0x7fc00001)
		negZero := math.Float32frombits(0x80000000)
		for n := 0; n <= 257; n++ {
			// axpySub: x[i] = 0 leaves dst[i] as it was, except -0 - (-0)
			// = +0, which a = -1 makes of every zero x against a -0 dst.
			dst, x := rowValues(n, 10), rowValues(n, 11)
			for i := range dst {
				switch i % 7 {
				case 0, 3:
					x[i] = 0
				case 1:
					dst[i], x[i] = negZero, 0
				case 2:
					dst[i] = math.Float32frombits(0x00000003) // a denormal
				case 5:
					dst[i] = hwNaN
				}
			}
			for off := 0; off < 4; off++ {
				checkAxpy(t, dst, x, -1, off, 3*off)
				checkAxpy(t, dst, x, 0.5, off, 60+off)
			}

			// stencil5: the output starts as the stencil's own result in
			// a third of the columns, its opposite zero or another NaN
			// payload in some, and arbitrary values elsewhere.
			up, down, mid := rowValues(n, 12), rowValues(n, 13), rowValues(n, 14)
			for i := range mid {
				switch i % 10 {
				case 0, 1, 2: // column 1 sums to +0
					up[i], down[i], mid[i] = 0, negZero, 0
				case 5, 6, 7: // column 6 sums to -0
					up[i], down[i], mid[i] = negZero, negZero, negZero
				}
			}
			res := make([]float32, n)
			copy(res, rowValues(n, 15))
			stencil5Go(res, up, down, mid, make([]uint64, (n+63)/64), 0)
			out0 := rowValues(n, 16)
			for q := range out0 {
				switch {
				case q%3 == 0:
					out0[q] = res[q]
				case res[q] == 0:
					out0[q] = -res[q] // the other zero
				case res[q] != res[q] && q%3 == 1:
					out0[q] = otherNaN
				}
			}
			for off := 0; off < 4; off++ {
				checkStencil(t, up, down, mid, out0, off, 7*off)
			}
		}
	})
}

// TestRowKernelsCommonPrefix pins the contract for arguments of
// unequal length: the shortest one bounds the call.
func TestRowKernelsCommonPrefix(t *testing.T) {
	rowPaths(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 40} {
			vals := rowValues(n+5, 5)
			// dst longer than x: only dst[:n] may change.
			back, dst := place(vals, 1)
			ref := append([]float32(nil), vals...)
			axpySub(dst, vals[:n], 2, make([]uint64, 1), 0)
			axpySubGo(ref, vals[:n], 2, make([]uint64, 1), 0)
			if i := sameBits(dst, ref); i >= 0 || !guardsIntact(back, 1, len(vals)) {
				t.Fatalf("axpySub short x, n=%d: differs at %d or wrote outside dst", n, i)
			}
			if i := sameBits(dst[n:], vals[n:]); i >= 0 {
				t.Fatalf("axpySub short x, n=%d: dst[%d] past the prefix changed", n, n+i)
			}
			// x longer than dst.
			back, dst = place(vals[:n], 2)
			ref = append([]float32(nil), vals[:n]...)
			axpySub(dst, vals, 2, make([]uint64, 1), 0)
			axpySubGo(ref, vals, 2, make([]uint64, 1), 0)
			if i := sameBits(dst, ref); i >= 0 || !guardsIntact(back, 2, n) {
				t.Fatalf("axpySub short dst, n=%d: differs at %d or wrote outside dst", n, i)
			}
			// The change bitmap bounds the call at its bits from at: one
			// word from bit 0 or 20 at 64 or 44 elements, and an empty one,
			// or one at does not reach into, stops it.
			long := rowValues(n+70, 9)
			for _, c := range []struct{ words, at int }{{0, 0}, {1, 0}, {1, 20}, {1, 64}, {1, 90}} {
				lim := max(64*c.words-c.at, 0)
				chg := make([]uint64, c.words)
				back, dst = place(long, 3)
				ref = append([]float32(nil), long...)
				axpySub(dst, rowValues(n+70, 17), 2, chg, c.at)
				axpySubGo(ref, rowValues(n+70, 17), 2, make([]uint64, c.words), c.at)
				if i := sameBits(dst, ref); i >= 0 || !guardsIntact(back, 3, len(long)) {
					t.Fatalf("axpySub %+v, n=%d: differs at %d or wrote outside dst", c, n, i)
				}
				if i := sameBits(dst[lim:], long[lim:]); i >= 0 {
					t.Fatalf("axpySub %+v, n=%d: dst[%d] past the bitmap changed", c, n, lim+i)
				}

				out := rowValues(n+70, 18)
				ref = append([]float32(nil), out...)
				stencil5(out, long, rowValues(n+70, 19), rowValues(n+70, 20), chg, c.at)
				stencil5Go(ref, long, rowValues(n+70, 19), rowValues(n+70, 20), make([]uint64, c.words), c.at)
				if i := sameBits(out, ref); i >= 0 {
					t.Fatalf("stencil5 %+v, n=%d: differs at %d", c, n, i)
				}
				if i := sameBits(out[lim+1:], rowValues(n+70, 18)[lim+1:]); i >= 0 {
					t.Fatalf("stencil5 %+v, n=%d: out[%d] past the bitmap changed", c, n, lim+1+i)
				}
			}
			// Each stencil argument in turn is the short one.
			for short := 0; short < 4; short++ {
				args := [4][]float32{vals, rowValues(n+5, 6), rowValues(n+5, 7), rowValues(n+5, 8)}
				args[short] = args[short][:n]
				back, out := place(args[0], 3)
				ref := append([]float32(nil), args[0]...)
				stencil5(out, args[1], args[2], args[3], make([]uint64, 1), 0)
				stencil5Go(ref, args[1], args[2], args[3], make([]uint64, 1), 0)
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
	})
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
var fuzzSeedLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 23, 24, 28, 31, 32, 33, 1023, 1024, 1025, 2051}

// The fuzzers' off byte picks the element alignment (off%4) and the
// bit the change report starts at (off/4, 0 to 63).

func FuzzAxpySub(f *testing.F) {
	for i, n := range fuzzSeedLengths {
		f.Add(fuzzBytes(n, 0, 1), uint8(i*37), math.Float32bits(axpyScalars[i%len(axpyScalars)]))
	}
	f.Add(fuzzBytes(9, 0, 1), uint8(5), uint32(0)) // a = 0: unchanged but for -0 - +0
	f.Fuzz(func(t *testing.T, data []byte, off uint8, abits uint32) {
		v := fuzzFloats(data, 2*2051)
		n := len(v) / 2
		a := math.Float32frombits(abits)
		if a != a {
			a = hwNaN
		}
		onRowPaths(func() { checkAxpy(t, v[:n], v[n:2*n], a, int(off%4), int(off/4)) })
	})
}

// FuzzStencil5 also fuzzes the output's previous contents: where bit
// q%64 of keep is set, out[q] starts as the value the stencil stores
// there, so the report must leave it unchanged.
func FuzzStencil5(f *testing.F) {
	for i, n := range fuzzSeedLengths {
		f.Add(fuzzBytes(n, 2, 3, 4, 5), uint8(i*37), uint64(0x00ff0f0f_33335555)>>uint(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8, keep uint64) {
		v := fuzzFloats(data, 4*2051)
		n := len(v) / 4
		up, down, mid, out0 := v[:n], v[n:2*n], v[2*n:3*n], v[3*n:4*n]
		res := append([]float32(nil), out0...)
		stencil5Go(res, up, down, mid, make([]uint64, (n+63)/64), 0)
		for q := range out0 {
			if keep>>uint(q%64)&1 != 0 {
				out0[q] = res[q]
			}
		}
		onRowPaths(func() { checkStencil(t, up, down, mid, out0, int(off%4), int(off/4)) })
	})
}
