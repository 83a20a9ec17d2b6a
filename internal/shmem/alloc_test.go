package shmem

import (
	"testing"

	"nowomp/internal/dsm"
)

// TestAccessorAllocationPins pins the element accessors to zero heap
// allocations: Get/Set load and store straight against page memory
// through a one-element span — a change that boxes the scalar or
// re-introduces a staging buffer fails here, not as a GC regression
// in the bench matrix.
func TestAccessorAllocationPins(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	m := ctxs[0]

	af, err := Alloc[float64](c, "pin64", 2048)
	if err != nil {
		t.Fatal(err)
	}
	a32, err := Alloc[float32](c, "pin32", 2048)
	if err != nil {
		t.Fatal(err)
	}
	// Touch everything once so the steady state has no faults or twins.
	for i := 0; i < af.Len(); i++ {
		af.Set(m, i, float64(i))
		a32.Set(m, i, float32(i))
	}

	if n := testing.AllocsPerRun(200, func() { af.Set(m, 17, 3.5) }); n != 0 {
		t.Errorf("float64 Set allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = af.Get(m, 17) }); n != 0 {
		t.Errorf("float64 Get allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { a32.Set(m, 33, 1.25) }); n != 0 {
		t.Errorf("float32 Set allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = a32.Get(m, 33) }); n != 0 {
		t.Errorf("float32 Get allocates %v times per run, want 0", n)
	}

	// The bulk accessors stage nothing either: the copy runs page by
	// page against the host's own buffers.
	dst := make([]float64, 1024)
	if n := testing.AllocsPerRun(50, func() { af.ReadRange(m, 0, 1024, dst) }); n != 0 {
		t.Errorf("ReadRange allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { af.WriteRange(m, 0, dst) }); n != 0 {
		t.Errorf("WriteRange allocates %v times per run, want 0", n)
	}
}

func BenchmarkArrayGetSet(b *testing.B) {
	c, ctxs := benchCluster(b)
	m := ctxs[0]
	a, err := Alloc[float64](c, "bench", 4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		a.Set(m, i, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		a.Set(m, j, a.Get(m, j)+1)
	}
}

func BenchmarkArrayReadRange(b *testing.B) {
	c, ctxs := benchCluster(b)
	m := ctxs[0]
	a, err := Alloc[float32](c, "bench", 8192)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float32, 8192)
	a.WriteRange(m, 0, buf)
	b.SetBytes(int64(len(buf) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ReadRange(m, 0, 8192, buf)
	}
}

func benchCluster(b *testing.B) (*dsm.Cluster, []Context) {
	b.Helper()
	return testCluster(b, 1)
}
