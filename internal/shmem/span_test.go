package shmem

import (
	"fmt"
	"math"
	"testing"

	"nowomp/internal/dsm"
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
	// A write-once span on an open page, one fresh element a run (each
	// element may be claimed once an interval).
	ao, err := Alloc[float32](c, "span32once", 4096)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	if n := testing.AllocsPerRun(200, func() {
		s, ch := ao.WriteSpanOnce(m, next, next+1)
		s[0] = 1
		ch.Set(0)
		next++
	}); n != 0 {
		t.Errorf("WriteSpanOnce allocates %v times per run, want 0", n)
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

// TestWriteSpanOnceMatchesWriteSpan runs the same program on two
// clusters, one storing through WriteSpan and the other through
// WriteSpanOnce with its change reports: three hosts write interleaved
// float32 rows, two to a page (so pages have concurrent writers and
// diffs), and disjoint halves of float64 pages, some elements with the
// value they hold, over two barriers. Every host must then read the
// same values on both clusters, and the DSM statistics must agree.
func TestWriteSpanOnceMatchesWriteSpan(t *testing.T) {
	const rows, cols = 12, 512 // 2 KB rows: two to a page
	type world struct {
		c    *dsm.Cluster
		ctxs []Context
		mx   *Matrix[float32]
		a    *Array[float64]
	}
	var ws [2]world
	for i := range ws {
		c, ctxs := testCluster(t, 3)
		mx, err := AllocMatrix[float32](c, "once32", rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Alloc[float64](c, "once64", 2048)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = world{c, ctxs, mx, a}
	}
	val32 := func(step, i, j int) float32 {
		if (i+j+step)%4 == 0 {
			return 0 // the value an unwritten element holds
		}
		return float32(step*1000+i*cols+j) / 7
	}
	for step := 1; step <= 2; step++ {
		for i, w := range ws {
			for r := 0; r < rows; r++ {
				m := w.ctxs[r%3]
				for j := 0; j < cols; {
					var s []float32
					var ch Changes
					if i == 0 {
						s = w.mx.WriteRowSpan(m, r, j, cols)
					} else {
						s, ch = w.mx.WriteRowSpanOnce(m, r, j, cols)
					}
					for k := range s {
						v := val32(step, r, j+k)
						if i == 1 && math.Float32bits(v) != math.Float32bits(s[k]) {
							ch.Set(k)
						}
						s[k] = v
					}
					j += len(s)
				}
			}
			// Host 1 the first half of every page of the float64 array,
			// host 2 the second.
			for lo := 0; lo < w.a.Len(); lo += 256 {
				m := w.ctxs[1+(lo/256)%2]
				var s []float64
				var ch Changes
				if i == 0 {
					s = w.a.WriteSpan(m, lo, lo+256)
				} else {
					s, ch = w.a.WriteSpanOnce(m, lo, lo+256)
				}
				for k := range s {
					v := float64(step*lo + k)
					if k%3 == 0 {
						v = s[k]
					}
					if i == 1 && math.Float64bits(v) != math.Float64bits(s[k]) {
						ch.Set(k)
					}
					s[k] = v
				}
			}
			syncAll(w.c, w.ctxs)
		}
		if a, b := ws[0].c.Stats().Snapshot(), ws[1].c.Stats().Snapshot(); a != b {
			t.Fatalf("step %d: stats differ\nWriteSpan:     %+v\nWriteSpanOnce: %+v", step, a, b)
		}
	}
	for h := 0; h < 3; h++ {
		for r := 0; r < rows; r++ {
			for j := 0; j < cols; j++ {
				a, b := ws[0].mx.Get(ws[0].ctxs[h], r, j), ws[1].mx.Get(ws[1].ctxs[h], r, j)
				if math.Float32bits(a) != math.Float32bits(b) || a != val32(2, r, j) {
					t.Fatalf("host %d reads [%d][%d] = %v and %v, want %v", h, r, j, a, b, val32(2, r, j))
				}
			}
		}
		for k := 0; k < ws[0].a.Len(); k++ {
			if a, b := ws[0].a.Get(ws[0].ctxs[h], k), ws[1].a.Get(ws[1].ctxs[h], k); a != b {
				t.Fatalf("host %d reads float64 element %d = %v and %v", h, k, a, b)
			}
		}
	}
	if a, b := ws[0].c.Stats().Snapshot(), ws[1].c.Stats().Snapshot(); a != b || a.DiffsCreated == 0 {
		t.Fatalf("stats differ or made no diffs\nWriteSpan:     %+v\nWriteSpanOnce: %+v", a, b)
	}

	// Only 4- and 8-byte elements report; an empty span has nothing to.
	c, ctxs := testCluster(t, 1)
	b, err := Alloc[uint8](c, "once8", 64)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if got := fmt.Sprint(recover()); got != "shmem: write-once span of 1-byte elements; want 4 or 8" {
				t.Errorf("uint8 write-once span panics %q", got)
			}
		}()
		b.WriteSpanOnce(ctxs[0], 0, 8)
	}()
	if s, _ := ws[1].a.WriteSpanOnce(ws[1].ctxs[0], 5, 5); s != nil {
		t.Errorf("empty write-once span returned %d elements", len(s))
	}
}
