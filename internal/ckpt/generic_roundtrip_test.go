package ckpt

import (
	"bytes"
	"testing"

	"nowomp/internal/omp"
	"nowomp/internal/shmem"
)

// roundTrip checkpoints a runtime holding an Array[T] and a Matrix[T],
// restores it into a fresh runtime, replays the allocations, and
// verifies the contents survived byte-exactly. This covers the
// element-size-aware region replay for one Element instantiation.
func roundTrip[T shmem.Element](t *testing.T, at func(i int) T) {
	t.Helper()
	cfg := omp.Config{Hosts: 3, Procs: 2, Adaptive: true}
	rt, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n, rows, cols = 64, 8, 6
	arr, err := omp.Alloc[T](rt, "arr", n)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := omp.AllocMatrix[T](rt, "mx", rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.MasterProc().Mem()
	vals := make([]T, n)
	for i := range vals {
		vals[i] = at(i)
	}
	arr.WriteRange(m, 0, vals)
	row := make([]T, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = at(i*cols + j)
		}
		mx.WriteRow(m, i, row)
	}

	var buf bytes.Buffer
	if _, err := Save(rt, &buf, map[string]any{"it": 3}); err != nil {
		t.Fatal(err)
	}

	rt2, restored, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	arr2, err := omp.Alloc[T](rt2, "arr", n)
	if err != nil {
		t.Fatal(err)
	}
	mx2, err := omp.AllocMatrix[T](rt2, "mx", rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	m2 := rt2.MasterProc().Mem()
	got := make([]T, n)
	arr2.ReadRange(m2, 0, n, got)
	for i := range got {
		if got[i] != at(i) {
			t.Fatalf("restored arr[%d] = %v, want %v", i, got[i], at(i))
		}
	}
	for i := 0; i < rows; i++ {
		mx2.ReadRow(m2, i, row)
		for j := range row {
			if row[j] != at(i*cols+j) {
				t.Fatalf("restored mx(%d,%d) = %v, want %v", i, j, row[j], at(i*cols+j))
			}
		}
	}
	var it int
	if err := restored.State("it", &it); err != nil || it != 3 {
		t.Fatalf("restored state it = %d, err %v", it, err)
	}
}

func TestRoundTripAllElementTypes(t *testing.T) {
	roundTrip(t, func(i int) float32 { return float32(i) * 1.5 })
	roundTrip(t, func(i int) float64 { return float64(i)*0.25 - 3 })
	roundTrip(t, func(i int) complex128 { return complex(float64(i), -float64(i)) })
	roundTrip(t, func(i int) int32 { return int32(i*7 - 100) })
	roundTrip(t, func(i int) int64 { return int64(i)<<33 - 5 })
	roundTrip(t, func(i int) uint8 { return uint8(i * 3) })
}
