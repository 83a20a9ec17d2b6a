package omp

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nowomp/internal/adapt"
)

// rangeLog collects the (lo,hi) ranges a loop body was handed, across
// goroutines.
type rangeLog struct {
	mu     sync.Mutex
	ranges [][2]int
}

func (l *rangeLog) add(lo, hi int) {
	l.mu.Lock()
	l.ranges = append(l.ranges, [2]int{lo, hi})
	l.mu.Unlock()
}

// assertTiles checks that the logged ranges tile [lo,hi) exactly: full
// coverage, no overlap, no stragglers.
func (l *rangeLog) assertTiles(t *testing.T, lo, hi int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.ranges, func(i, j int) bool { return l.ranges[i][0] < l.ranges[j][0] })
	next := lo
	for _, r := range l.ranges {
		if r[0] != next {
			t.Fatalf("range starts at %d, want %d (gap or overlap); ranges %v", r[0], next, l.ranges)
		}
		if r[1] <= r[0] {
			t.Fatalf("empty or inverted range %v", r)
		}
		next = r[1]
	}
	if next != hi {
		t.Fatalf("coverage ends at %d, want %d", next, hi)
	}
}

func TestForReduceMax(t *testing.T) {
	rt := newRT(t, 3, 3, false)
	got := rt.For("max", 0, 100, func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.Contribute(float64((i * 37) % 89))
		}
	}, WithReduce(math.Inf(-1), math.Max))
	if got != 88 {
		t.Fatalf("max = %v, want 88", got)
	}
}

func TestForGuidedCoversDisjointly(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	const n = 1000
	var log rangeLog
	var hits [n]int32
	rt.For("guided", 0, n, func(p *Proc, lo, hi int) {
		log.add(lo, hi)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	}, WithSchedule(Guided, 8))
	log.assertTiles(t, 0, n)
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
	// Guided must shrink: the first claimed chunk is remaining/nprocs,
	// far larger than the configured minimum of 8.
	sort.Slice(log.ranges, func(i, j int) bool { return log.ranges[i][0] < log.ranges[j][0] })
	if first := log.ranges[0][1] - log.ranges[0][0]; first != n/4 {
		t.Fatalf("first guided chunk = %d iterations, want %d", first, n/4)
	}
	last := log.ranges[len(log.ranges)-1]
	if width := last[1] - last[0]; width > 8 {
		t.Fatalf("final guided chunk = %d iterations, want <= the minimum 8", width)
	}
	if rt.Cluster().Stats().LockAcquires == 0 {
		t.Fatal("guided schedule must go through the Tmk lock")
	}
}

// TestForGuidedUnderTeamResize runs a sequence of guided loops while
// the team grows and shrinks, asserting every construct still tiles
// the full iteration space disjointly with the post-adaptation team.
func TestForGuidedUnderTeamResize(t *testing.T) {
	rt := newRT(t, 6, 4, true)
	if _, err := Alloc[float64](rt, "v", 64); err != nil {
		t.Fatal(err)
	}
	const n = 777
	resizes := []adapt.Event{
		{Kind: adapt.KindJoin, Host: 4},
		{Kind: adapt.KindJoin, Host: 5},
		{Kind: adapt.KindLeave, Host: 2},
		{Kind: adapt.KindLeave, Host: 4},
	}
	teamSizes := map[int]bool{}
	for round := 0; round <= len(resizes); round++ {
		if round > 0 {
			ev := resizes[round-1]
			ev.At = rt.Now()
			if err := rt.Submit(ev); err != nil {
				t.Fatal(err)
			}
			// Let the event mature (spawn delay for joins, grace for
			// leaves) and apply at an adaptation point.
			before := rt.NProcs()
			for i := 0; i < 20 && rt.NProcs() == before; i++ {
				rt.Parallel("tick", func(p *Proc) { p.Charge(1.0) })
			}
			if rt.NProcs() == before {
				t.Fatalf("round %d: event %v never applied", round, ev)
			}
		}
		var log rangeLog
		var procN int32
		rt.For("guided", 0, n, func(p *Proc, lo, hi int) {
			log.add(lo, hi)
			atomic.StoreInt32(&procN, int32(p.N))
			p.ChargeUnits(hi-lo, 1e-6)
		}, WithSchedule(Guided, 4))
		log.assertTiles(t, 0, n)
		teamSizes[int(atomic.LoadInt32(&procN))] = true
	}
	if len(teamSizes) < 3 {
		t.Fatalf("team never resized across rounds: sizes seen %v", teamSizes)
	}
}

func TestForChunkReduction(t *testing.T) {
	// Contribute folds once per chunk; the total must still be exact.
	rt := newRT(t, 4, 4, false)
	const n = 500
	got := rt.For("chunk-sum", 0, n, func(p *Proc, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += float64(i)
		}
		p.Contribute(s)
	}, WithSchedule(StaticChunk, 16), WithReduce(0, func(a, b float64) float64 { return a + b }))
	if want := float64(n-1) * float64(n) / 2; got != want {
		t.Fatalf("chunked reduction = %v, want %v", got, want)
	}
}

func TestForValidation(t *testing.T) {
	rt := newRT(t, 2, 2, false)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		f()
	}
	mustPanic("chunk=0 static-chunk", func() {
		rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithSchedule(StaticChunk, 0))
	})
	mustPanic("chunk=0 dynamic", func() {
		rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithSchedule(Dynamic, 0))
	})
	mustPanic("negative guided min", func() {
		rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithSchedule(Guided, -1))
	})
	mustPanic("nil reduce op", func() {
		rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithReduce(0, nil))
	})
	mustPanic("unknown schedule", func() {
		rt.For("bad", 0, 10, func(p *Proc, lo, hi int) {}, WithSchedule(Schedule(99), 1))
	})
	// Single-process runtime so the body panics on the master
	// goroutine, where recover can observe it.
	rt1 := newRT(t, 1, 1, false)
	mustPanic("Contribute without reduce", func() {
		rt1.For("bad", 0, 10, func(p *Proc, lo, hi int) { p.Contribute(1) })
	})
}

func TestScheduleString(t *testing.T) {
	for s, want := range map[Schedule]string{
		Static: "static", StaticChunk: "static-chunk",
		Dynamic: "dynamic", Guided: "guided", Schedule(42): "schedule(42)",
	} {
		if got := s.String(); got != want {
			t.Fatalf("Schedule(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	rt := newRT(t, 2, 2, false) // non-adaptive
	err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 1})
	if !errors.Is(err, ErrNotAdaptive) {
		t.Fatalf("Submit on non-adaptive runtime = %v, want ErrNotAdaptive", err)
	}

	rt2 := newRT(t, 2, 1, true)
	rt2.BeginRestore([]RegionDump{{Name: "a", Bytes: 80, Data: make([]byte, 80)}}, 0, 0)
	if _, err := Alloc[float64](rt2, "b", 10); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("mismatched replay name = %v, want ErrRestoreMismatch", err)
	}
	if _, err := Alloc[float64](rt2, "a", 11); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("mismatched replay size = %v, want ErrRestoreMismatch", err)
	}
	if _, err := Alloc[float64](rt2, "a", 10); err != nil {
		t.Fatalf("correct replay failed: %v", err)
	}
	if _, err := Alloc[int32](rt2, "extra", 4); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("replay past the dump = %v, want ErrRestoreMismatch", err)
	}
}
