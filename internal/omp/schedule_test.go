package omp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/simtime"
)

func TestParallelForTiledCoversAndAddsPoints(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	const n = 1000
	var hits [n]int32
	forks0 := rt.Forks()
	rt.ParallelForTiled("tiled", 0, n, 8, func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
	if got := rt.Forks() - forks0; got != 8 {
		t.Fatalf("tiled loop produced %d adaptation points, want 8", got)
	}
}

func TestParallelForTiledReducesAdaptationLatency(t *testing.T) {
	// A leave raised mid-loop: with one construct the team shrinks only
	// after the whole loop; with tiles it shrinks after the next tile.
	run := func(tiles int) (teamDuring []int) {
		rt := newRT(t, 4, 4, true)
		Alloc[float64](rt, "v", 256)
		if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 3, At: 0.001}); err != nil {
			t.Fatal(err)
		}
		rt.ParallelForTiled("loop", 0, 400, tiles, func(p *Proc, lo, hi int) {
			if p.ID == 0 {
				teamDuring = append(teamDuring, p.N)
			}
			p.ChargeUnits(hi-lo, 1e-4)
		})
		return teamDuring
	}
	whole := run(1)
	if len(whole) != 1 || whole[0] != 4 {
		t.Fatalf("single construct: team sizes %v, want [4]", whole)
	}
	tiled := run(4)
	if len(tiled) != 4 {
		t.Fatalf("tiled: %d constructs, want 4", len(tiled))
	}
	if tiled[0] != 4 {
		t.Fatalf("tile 0 team = %d, want 4 (event processes at the next point)", tiled[0])
	}
	shrank := false
	for _, n := range tiled[1:] {
		if n == 3 {
			shrank = true
		}
	}
	if !shrank {
		t.Fatalf("tiled run never adapted mid-loop: teams %v", tiled)
	}
}

func TestParallelForTiledEdgeCases(t *testing.T) {
	rt := newRT(t, 2, 2, false)
	var count int32
	// More tiles than iterations: clamps.
	rt.ParallelForTiled("clamp", 0, 3, 10, func(p *Proc, lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 3 {
		t.Fatalf("covered %d iterations, want 3", count)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tiles=0 must panic")
		}
	}()
	rt.ParallelForTiled("bad", 0, 10, 0, func(p *Proc, lo, hi int) {})
}

func TestParallelForDynamicCoversOnce(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	const n = 777
	var hits [n]int32
	rt.For("dyn", 0, n, func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}, WithSchedule(Dynamic, 32))
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestParallelForDynamicBalancesSkew(t *testing.T) {
	// With per-iteration cost growing across the space (a triangular
	// skew), the static block partition overloads the last process
	// while dynamic scheduling balances chunk by chunk — and must win
	// despite paying for locks and counter-page traffic.
	work := func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Charge(simtime.Seconds(float64(i) * 2e-6))
		}
	}
	rtS := newRT(t, 4, 4, false)
	t0 := rtS.Now()
	rtS.For("static", 0, 1024, work)
	static := rtS.Now() - t0

	rtD := newRT(t, 4, 4, false)
	t0 = rtD.Now()
	rtD.For("dynamic", 0, 1024, work, WithSchedule(Dynamic, 64))
	dynamic := rtD.Now() - t0

	if dynamic >= static {
		t.Fatalf("dynamic %.3fs should beat static %.3fs on skewed work", float64(dynamic), float64(static))
	}
	if rtD.Cluster().Stats().LockAcquires == 0 {
		t.Fatal("dynamic schedule must go through the Tmk lock")
	}
}

func TestParallelForDynamicRepeatedAndSequential(t *testing.T) {
	rt := newRT(t, 4, 2, false)
	var total int64
	for round := 0; round < 3; round++ {
		var sum int64
		rt.For("dyn", 100, 200, func(p *Proc, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt64(&sum, int64(i))
			}
		}, WithSchedule(Dynamic, 7))
		total += sum
	}
	want := int64(3) * (199 + 100) * 100 / 2
	if total != want {
		t.Fatalf("sum over rounds = %d, want %d", total, want)
	}
}

func TestParallelForDynamicChunkValidation(t *testing.T) {
	rt := newRT(t, 2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("chunk=0 must panic")
		}
	}()
	rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithSchedule(Dynamic, 0))
}

// TestReservedLockIDPanics: the dynamic schedules' counter lock is the
// runtime's alone — their claims store the counter through a write-once
// span, sound only while runSchedule is that lock's one user — so
// Proc.Lock and Proc.Unlock refuse its id, naming it.
func TestReservedLockIDPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		use  func(p *Proc)
	}{
		{"lock", func(p *Proc) { p.Lock(dynLock) }},
		{"unlock", func(p *Proc) { p.Unlock(dynLock) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t, 2, 2, false)
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "omp: lock id 1073741824 is reserved") {
					t.Fatalf("panic %q, want the reserved-id refusal", msg)
				}
			}()
			rt.Parallel("reserved", tc.use)
		})
	}
	// Any other id still works, beside a dynamic loop.
	rt := newRT(t, 2, 2, false)
	rt.Parallel("user lock", func(p *Proc) {
		p.Lock(dynLock - 1)
		p.Unlock(dynLock - 1)
	})
	var hits [64]int32
	rt.For("dyn", 0, len(hits), func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	}, WithSchedule(Dynamic, 5))
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d ran %d times", i, h)
		}
	}
}
