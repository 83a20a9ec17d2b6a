package nowomp_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"nowomp"
)

// TestGenericPublicAPI exercises the generic facade: Alloc[T],
// AllocMatrix[T], the unified For with schedule and reduce options,
// and the sentinel errors — the README's public surface, as a test.
func TestGenericPublicAPI(t *testing.T) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}

	v, err := nowomp.Alloc[int64](rt, "v", 1024)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := nowomp.AllocMatrix[uint8](rt, "mx", 16, 32)
	if err != nil {
		t.Fatal(err)
	}

	rt.For("fill", 0, v.Len(), func(p *nowomp.Proc, lo, hi int) {
		buf := make([]int64, hi-lo)
		for i := range buf {
			buf[i] = int64(lo+i) * 3
		}
		v.WriteRange(p.Mem(), lo, buf)
	}, nowomp.WithSchedule(nowomp.Guided, 16))

	rt.For("rows", 0, mx.Rows(), func(p *nowomp.Proc, lo, hi int) {
		row := make([]uint8, mx.Cols())
		for i := lo; i < hi; i++ {
			for j := range row {
				row[j] = uint8(i + j)
			}
			mx.WriteRow(p.Mem(), i, row)
		}
	})

	sum := rt.For("sum", 0, v.Len(), func(p *nowomp.Proc, lo, hi int) {
		buf := make([]int64, hi-lo)
		v.ReadRange(p.Mem(), lo, hi, buf)
		s := 0.0
		for _, x := range buf {
			s += float64(x)
		}
		p.Contribute(s)
	}, nowomp.WithSchedule(nowomp.StaticChunk, 64),
		nowomp.WithReduce(0, func(a, b float64) float64 { return a + b }))
	if want := 3 * float64(1023) * 1024 / 2; sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	if got := mx.Get(rt.MasterProc().Mem(), 3, 5); got != 8 {
		t.Fatalf("mx(3,5) = %d, want 8", got)
	}
}

// TestAllocRejectsOverflowingSize: a count whose byte size wraps int
// (to 16 and to 4 bytes here, on a 32-bit and on a 64-bit int alike)
// is an error at the public allocators, not a view that claims more
// elements than its region holds.
func TestAllocRejectsOverflowingSize(t *testing.T) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 1, Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nowomp.Alloc[complex128](rt, "v", math.MaxInt/8+2); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("Alloc: err = %v, want an overflow error", err)
	}
	if _, err := nowomp.AllocMatrix[uint8](rt, "m", math.MaxInt/2+2, 4); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("AllocMatrix: err = %v, want an overflow error", err)
	}
}

func TestPublicSentinelErrors(t *testing.T) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 2, Procs: 1}) // non-adaptive
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Join, Host: 1}); !errors.Is(err, nowomp.ErrNotAdaptive) {
		t.Fatalf("Submit = %v, want ErrNotAdaptive", err)
	}
}
