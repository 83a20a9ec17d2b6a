package shmem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat32ArrayRoundTrip(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, err := Alloc[float32](c, "v", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2000 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < a.Len(); i += 53 {
		a.Set(ctxs[0], i, float32(i)*0.25)
	}
	syncAll(c, ctxs)
	for i := 0; i < a.Len(); i += 53 {
		if got := a.Get(ctxs[1], i); got != float32(i)*0.25 {
			t.Fatalf("a[%d] = %g", i, got)
		}
	}
}

func TestFloat32SpecialValues(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, _ := Alloc[float32](c, "v", 6)
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	vals := []float32{0, float32(math.Copysign(0, -1)), inf, -inf, nan, math.MaxFloat32}
	a.WriteRange(ctxs[0], 0, vals)
	syncAll(c, ctxs)
	got := make([]float32, 6)
	a.ReadRange(ctxs[1], 0, 6, got)
	for i, want := range vals {
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(float64(got[i])) {
				t.Fatalf("elem %d = %g, want NaN", i, got[i])
			}
			continue
		}
		if got[i] != want || math.Signbit(float64(got[i])) != math.Signbit(float64(want)) {
			t.Fatalf("elem %d = %g, want %g", i, got[i], want)
		}
	}
}

func TestFloat32MatrixRowsAndRanges(t *testing.T) {
	c, ctxs := testCluster(t, 3)
	mx, err := AllocMatrix[float32](c, "m", 16, 40)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Rows() != 16 || mx.Cols() != 40 {
		t.Fatalf("dims = %dx%d", mx.Rows(), mx.Cols())
	}
	row := make([]float32, 40)
	for i := 0; i < 16; i++ {
		for j := range row {
			row[j] = float32(i*100 + j)
		}
		mx.WriteRow(ctxs[i%3], i, row)
	}
	syncAll(c, ctxs)
	// Partial row ranges, the Gauss access pattern.
	part := make([]float32, 25)
	mx.ReadRowRange(ctxs[1], 7, 15, 40, part)
	for j, v := range part {
		if v != float32(700+15+j) {
			t.Fatalf("row 7 col %d = %g", 15+j, v)
		}
	}
	for j := range part {
		part[j] = -part[j]
	}
	mx.WriteRowRange(ctxs[1], 7, 15, part)
	syncAll(c, ctxs)
	if got := mx.Get(ctxs[2], 7, 20); got != -float32(700+20) {
		t.Fatalf("m[7][20] = %g", got)
	}
	mx.Set(ctxs[2], 7, 20, 5)
	if got := mx.Get(ctxs[2], 7, 20); got != 5 {
		t.Fatalf("Set did not stick: %g", got)
	}
}

func TestFloat32Bounds(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	a, _ := Alloc[float32](c, "v", 8)
	mx, _ := AllocMatrix[float32](c, "m", 4, 4)
	cases := []func(){
		func() { a.Get(ctxs[0], 8) },
		func() { a.Set(ctxs[0], -1, 0) },
		func() { a.ReadRange(ctxs[0], 0, 9, make([]float32, 9)) },
		func() { a.ReadRange(ctxs[0], 0, 4, make([]float32, 3)) },
		func() { a.WriteRange(ctxs[0], 6, make([]float32, 3)) },
		func() { mx.Get(ctxs[0], 4, 0) },
		func() { mx.ReadRow(ctxs[0], -1, make([]float32, 4)) },
		func() { mx.WriteRow(ctxs[0], 0, make([]float32, 5)) },
		func() { mx.ReadRowRange(ctxs[0], 0, 2, 5, make([]float32, 3)) },
		func() { mx.WriteRowRange(ctxs[0], 0, 3, make([]float32, 2)) },
		func() { a.Get(Context{}, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
	if _, err := Alloc[float32](c, "bad", 0); err == nil {
		t.Fatal("Alloc[float32](0) must fail")
	}
	if _, err := AllocMatrix[float32](c, "bad", 3, 0); err == nil {
		t.Fatal("AllocMatrix[float32](3,0) must fail")
	}
}

// Property: float32 range writes round-trip exactly (bit patterns
// preserved through the byte encoding).
func TestFloat32RoundTripProperty(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	a, _ := Alloc[float32](c, "v", 1024)
	f := func(off uint16, raw []float32) bool {
		lo := int(off) % 512
		if len(raw) > 512 {
			raw = raw[:512]
		}
		a.WriteRange(ctxs[0], lo, raw)
		got := make([]float32, len(raw))
		a.ReadRange(ctxs[0], lo, lo+len(raw), got)
		for i := range raw {
			if got[i] != raw[i] && !(math.IsNaN(float64(got[i])) && math.IsNaN(float64(raw[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The remaining view types' bounds checks.
func TestComplexAndInt32Bounds(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	z, _ := Alloc[complex128](c, "z", 8)
	n, _ := Alloc[int32](c, "n", 8)
	cases := []func(){
		func() { z.ReadRange(ctxs[0], 0, 9, make([]complex128, 9)) },
		func() { z.ReadRange(ctxs[0], 0, 4, make([]complex128, 3)) },
		func() { z.WriteRange(ctxs[0], 7, make([]complex128, 2)) },
		func() { n.ReadRange(ctxs[0], -1, 4, make([]int32, 5)) },
		func() { n.ReadRange(ctxs[0], 0, 4, make([]int32, 5)) },
		func() { n.WriteRange(ctxs[0], 7, make([]int32, 2)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
	if z.Region() == nil || n.Region() == nil {
		t.Fatal("Region accessors must work")
	}
}
