package shmem

import (
	"testing"
)

// TestSpanAllocationPins pins the span-level kernel fast paths to zero
// heap allocations in steady state: a full sweep through ReadSpan or
// WriteSpan (the loop shape every span kernel uses), random access
// through a Reader, and a gather through the bundled Reader3 (made from
// a caller-owned table) must all serve straight out of page memory. A change that makes the typed reinterpretation
// or the fault-test escape fails here rather than as a throughput
// regression in the scale-1.0 matrix.
func TestSpanAllocationPins(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	m := ctxs[0]

	af, err := Alloc[float64](c, "span64", 2048)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := Alloc[float64](c, "span64b", 2048)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := Alloc[float64](c, "span64c", 2048)
	if err != nil {
		t.Fatal(err)
	}
	// Touch everything once so the steady state has no faults or twins.
	for i := 0; i < af.Len(); i++ {
		af.Set(m, i, float64(i))
		b0.Set(m, i, 1)
		b1.Set(m, i, 2)
	}

	if n := testing.AllocsPerRun(100, func() {
		for lo := 0; lo < af.Len(); {
			s := af.ReadSpan(m, lo, af.Len())
			lo += len(s)
		}
	}); n != 0 {
		t.Errorf("ReadSpan sweep allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for lo := 0; lo < af.Len(); {
			s := af.WriteSpan(m, lo, af.Len())
			for i := range s {
				s[i] += 1
			}
			lo += len(s)
		}
	}); n != 0 {
		t.Errorf("WriteSpan sweep allocates %v times per run, want 0", n)
	}

	r := af.Reader(m)
	if n := testing.AllocsPerRun(200, func() { _ = r.Get(17) }); n != 0 {
		t.Errorf("Reader.Get allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = af.Reader(m) }); n != 0 {
		t.Errorf("Reader construction allocates %v times per run, want 0", n)
	}
	table := make([]PageRef, af.Pages())
	idx := []int32{33, 1500, 34, 2047, 0}
	xs, ys, zs := make([]float64, len(idx)), make([]float64, len(idx)), make([]float64, len(idx))
	if n := testing.AllocsPerRun(200, func() {
		r3 := Readers3(m, af, b0, b1, table)
		r3.Gather3(idx, xs, ys, zs)
	}); n != 0 {
		t.Errorf("Readers3 plus Gather3 allocates %v times per run, want 0", n)
	}
}

// BenchmarkSpanSweep measures the span fast path against the
// per-element accessor on the same access pattern — the before/after
// of the span-level kernel rewrite, kept as a pin so the gap cannot
// silently close.
func BenchmarkSpanSweep(b *testing.B) {
	c, ctxs := testCluster(b, 1)
	m := ctxs[0]
	af, err := Alloc[float64](c, "bench64", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < af.Len(); i++ {
		af.Set(m, i, float64(i))
	}

	b.Run("read-span", func(b *testing.B) {
		b.SetBytes(int64(af.Len() * 8))
		var sum float64
		for n := 0; n < b.N; n++ {
			for lo := 0; lo < af.Len(); {
				s := af.ReadSpan(m, lo, af.Len())
				for _, v := range s {
					sum += v
				}
				lo += len(s)
			}
		}
		sink = sum
	})
	b.Run("read-element", func(b *testing.B) {
		b.SetBytes(int64(af.Len() * 8))
		var sum float64
		for n := 0; n < b.N; n++ {
			for i := 0; i < af.Len(); i++ {
				sum += af.Get(m, i)
			}
		}
		sink = sum
	})
	b.Run("write-span", func(b *testing.B) {
		b.SetBytes(int64(af.Len() * 8))
		for n := 0; n < b.N; n++ {
			for lo := 0; lo < af.Len(); {
				s := af.WriteSpan(m, lo, af.Len())
				for i := range s {
					s[i] += 1
				}
				lo += len(s)
			}
		}
	})
	b.Run("write-element", func(b *testing.B) {
		b.SetBytes(int64(af.Len() * 8))
		for n := 0; n < b.N; n++ {
			for i := 0; i < af.Len(); i++ {
				af.Set(m, i, af.Get(m, i)+1)
			}
		}
	})
}

// sink keeps benchmark loop results observable so the compiler cannot
// elide the reads.
var sink float64
