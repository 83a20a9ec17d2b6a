package shmem

import (
	"testing"

	"nowomp/internal/dsm"
)

func masterCluster(t *testing.T) (*dsm.Cluster, Context) {
	t.Helper()
	c, ctxs := testCluster(t, 1)
	return c, ctxs[0]
}

// roundTripArray exercises Get/Set/ReadRange/WriteRange for one
// Element instantiation against a reference slice.
func roundTripArray[T Element](t *testing.T, name string, vals []T) {
	t.Helper()
	c, m := masterCluster(t)
	a, err := Alloc[T](c, name, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != len(vals) {
		t.Fatalf("%s: Len = %d, want %d", name, a.Len(), len(vals))
	}
	if got, want := a.Region().Bytes, len(vals)*Sizeof[T](); got != want {
		t.Fatalf("%s: region is %d bytes, want %d", name, got, want)
	}
	a.WriteRange(m, 0, vals)
	got := make([]T, len(vals))
	a.ReadRange(m, 0, len(vals), got)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%s: ReadRange[%d] = %v, want %v", name, i, got[i], vals[i])
		}
	}
	// Element accessors against the bulk contents.
	for i := range vals {
		if v := a.Get(m, i); v != vals[i] {
			t.Fatalf("%s: Get(%d) = %v, want %v", name, i, v, vals[i])
		}
	}
	a.Set(m, 1, vals[0])
	if v := a.Get(m, 1); v != vals[0] {
		t.Fatalf("%s: Set/Get(1) = %v, want %v", name, v, vals[0])
	}
}

func TestArrayRoundTripAllElements(t *testing.T) {
	roundTripArray(t, "f32", []float32{0, -1.5, 3.25, 1e-20, 7})
	roundTripArray(t, "f64", []float64{0, -1.5, 3.25, 1e-300, 7})
	roundTripArray(t, "z128", []complex128{0, complex(1.5, -2.5), complex(-1e10, 3)})
	roundTripArray(t, "i32", []int32{0, -7, 1 << 30, 42})
	roundTripArray(t, "i64", []int64{0, -7, 1 << 60, 42})
	roundTripArray(t, "u8", []uint8{0, 255, 7, 128, 1, 2, 3, 4})
}

func roundTripMatrix[T Element](t *testing.T, name string, rows, cols int, at func(i, j int) T) {
	t.Helper()
	c, m := masterCluster(t)
	mx, err := AllocMatrix[T](c, name, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Rows() != rows || mx.Cols() != cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", name, mx.Rows(), mx.Cols(), rows, cols)
	}
	row := make([]T, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = at(i, j)
		}
		mx.WriteRow(m, i, row)
	}
	got := make([]T, cols)
	for i := 0; i < rows; i++ {
		mx.ReadRow(m, i, got)
		for j := range got {
			if got[j] != at(i, j) {
				t.Fatalf("%s: (%d,%d) = %v, want %v", name, i, j, got[j], at(i, j))
			}
		}
		if v := mx.Get(m, i, 0); v != at(i, 0) {
			t.Fatalf("%s: Get(%d,0) = %v, want %v", name, i, v, at(i, 0))
		}
	}
	// Partial-row accessors.
	part := make([]T, cols-1)
	mx.ReadRowRange(m, 0, 1, cols, part)
	for j := range part {
		if part[j] != at(0, j+1) {
			t.Fatalf("%s: ReadRowRange[%d] = %v, want %v", name, j, part[j], at(0, j+1))
		}
	}
	mx.Set(m, 1, 1, at(0, 0))
	if v := mx.Get(m, 1, 1); v != at(0, 0) {
		t.Fatalf("%s: Set/Get(1,1) = %v, want %v", name, v, at(0, 0))
	}
}

func TestMatrixRoundTripAllElements(t *testing.T) {
	roundTripMatrix(t, "mf32", 4, 6, func(i, j int) float32 { return float32(i*10+j) + 0.5 })
	roundTripMatrix(t, "mf64", 4, 6, func(i, j int) float64 { return float64(i*10+j) + 0.25 })
	roundTripMatrix(t, "mz", 3, 4, func(i, j int) complex128 { return complex(float64(i), float64(j)) })
	roundTripMatrix(t, "mi32", 4, 6, func(i, j int) int32 { return int32(i*100 - j) })
	roundTripMatrix(t, "mi64", 4, 6, func(i, j int) int64 { return int64(i)<<40 - int64(j) })
	roundTripMatrix(t, "mu8", 4, 8, func(i, j int) uint8 { return uint8(i*16 + j) })
}

// TestMatrixColumnBounds pins that an out-of-range column panics
// instead of silently reading the adjacent row (the flat index would
// still be in range).
func TestMatrixColumnBounds(t *testing.T) {
	c, m := masterCluster(t)
	mx, err := AllocMatrix[float32](c, "m", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Get col too large": func() { mx.Get(m, 0, 5) },
		"Get col negative":  func() { mx.Get(m, 0, -1) },
		"Set col too large": func() { mx.Set(m, 0, 4, 1) },
		"Get row too large": func() { mx.Get(m, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSizeof(t *testing.T) {
	if got := Sizeof[float32](); got != 4 {
		t.Fatalf("Sizeof[float32] = %d", got)
	}
	if got := Sizeof[float64](); got != 8 {
		t.Fatalf("Sizeof[float64] = %d", got)
	}
	if got := Sizeof[complex128](); got != 16 {
		t.Fatalf("Sizeof[complex128] = %d", got)
	}
	if got := Sizeof[int32](); got != 4 {
		t.Fatalf("Sizeof[int32] = %d", got)
	}
	if got := Sizeof[int64](); got != 8 {
		t.Fatalf("Sizeof[int64] = %d", got)
	}
	if got := Sizeof[uint8](); got != 1 {
		t.Fatalf("Sizeof[uint8] = %d", got)
	}
}
