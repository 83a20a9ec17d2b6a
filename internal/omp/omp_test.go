package omp

import (
	"math"
	"reflect"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"testing/quick"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

func newRT(t *testing.T, hosts, procs int, adaptive bool) *Runtime {
	t.Helper()
	rt, err := New(Config{Hosts: hosts, Procs: procs, Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Hosts: 0, Procs: 1}); err == nil {
		t.Fatal("Hosts=0 must fail")
	}
	if _, err := New(Config{Hosts: 4, Procs: 5}); err == nil {
		t.Fatal("Procs>Hosts must fail")
	}
	if _, err := New(Config{Hosts: 4, Procs: 0}); err == nil {
		t.Fatal("Procs=0 must fail")
	}
}

func TestBlockPartitionProperties(t *testing.T) {
	// Every iteration is assigned exactly once, blocks are contiguous,
	// ordered, and balanced within one iteration.
	f := func(rawN, rawT, rawLo uint16) bool {
		n := int(rawN)%5000 + 1
		tt := int(rawT)%16 + 1
		lo := int(rawLo) % 100
		hi := lo + n
		prevEnd := lo
		minSz, maxSz := n, 0
		for id := 0; id < tt; id++ {
			a, b := blockRange(lo, hi, id, tt)
			if a != prevEnd {
				return false // gap or overlap
			}
			prevEnd = b
			if sz := b - a; sz < minSz {
				minSz = sz
			} else if sz > maxSz {
				maxSz = sz
			}
			if sz := b - a; sz > maxSz {
				maxSz = sz
			}
		}
		if prevEnd != hi {
			return false
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversIterationSpace(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	const n = 1003
	var hits [n]int32
	rt.For("cover", 0, n, func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestParallelForChunkCoversAndInterleaves(t *testing.T) {
	rt := newRT(t, 4, 3, false)
	const n = 250
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	rt.For("chunk", 0, n, func(p *Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.StoreInt32(&owner[i], int32(p.ID))
		}
	}, WithSchedule(StaticChunk, 16))
	for i := 0; i < n; i++ {
		want := (i / 16) % 3
		if owner[i] != int32(want) {
			t.Fatalf("iteration %d ran on proc %d, want %d", i, owner[i], want)
		}
	}
}

func TestParallelChargesAndJoinWaitsForSlowest(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	t0 := rt.Now()
	rt.Parallel("skew", func(p *Proc) {
		p.Charge(simtime.Seconds(float64(p.ID))) // proc 3 works 3 s
	})
	if d := rt.Now() - t0; d < 3 {
		t.Fatalf("phase took %v, want >= 3 s (slowest proc)", d)
	}
}

func TestSharedMemoryThroughRuntime(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	a, err := Alloc[float64](rt, "v", 1024)
	if err != nil {
		t.Fatal(err)
	}
	rt.For("fill", 0, 1024, func(p *Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = float64(lo + i)
		}
		a.WriteRange(p.Mem(), lo, buf)
	})
	// Sum in parallel with a different partition parity.
	got := rt.For("sum", 0, 1024,
		func(p *Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			a.ReadRange(p.Mem(), lo, hi, buf)
			s := 0.0
			for _, v := range buf {
				s += v
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	want := float64(1023 * 1024 / 2)
	if got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestNonAdaptiveRejectsEvents(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 1, At: 0})
	if err == nil {
		t.Fatal("non-adaptive runtime must reject adapt events")
	}
}

// TestSubmitRejectsUnappliableEvents: an event the runtime can never
// apply is a returned error at Submit, not a panic at a later fork or
// an entry pending forever.
func TestSubmitRejectsUnappliableEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   adapt.Event
	}{
		{"join of a host past the pool", adapt.Event{Kind: adapt.KindJoin, Host: 99}},
		{"leave of a host past the pool", adapt.Event{Kind: adapt.KindLeave, Host: 99}},
		{"leave of a negative host", adapt.Event{Kind: adapt.KindLeave, Host: -1}},
		{"NaN time", adapt.Event{Kind: adapt.KindJoin, Host: 3, At: simtime.Seconds(math.NaN())}},
		{"infinite time", adapt.Event{Kind: adapt.KindJoin, Host: 3, At: simtime.Seconds(math.Inf(1))}},
		{"NaN grace", adapt.Event{Kind: adapt.KindLeave, Host: 2, Grace: simtime.Seconds(math.NaN())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t, 4, 3, true)
			if err := rt.Submit(tc.ev); err == nil {
				t.Fatalf("Submit(%+v) = nil, want an error", tc.ev)
			}
			for i := 0; i < 3; i++ {
				rt.For("fork", 0, 64, func(p *Proc, lo, hi int) {})
			}
			if n := rt.Manager().PendingCount(); n != 0 || len(rt.AdaptLog()) != 0 {
				t.Fatalf("after three forks: %d pending, %d adaptation points; want none", n, len(rt.AdaptLog()))
			}
		})
	}
}

func TestLeaveShrinksTeamAtNextFork(t *testing.T) {
	rt := newRT(t, 4, 4, true)
	a, _ := Alloc[float64](rt, "v", 4096)
	rt.For("w", 0, 4096, func(p *Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = 1
		}
		a.WriteRange(p.Mem(), lo, buf)
		p.Charge(0.5)
	})
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: rt.Now()}); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	rt.For("after", 0, 4096, func(p *Proc, lo, hi int) {
		if p.ID == 0 {
			sizes = append(sizes, p.N)
		}
	})
	if rt.NProcs() != 3 {
		t.Fatalf("team size = %d, want 3", rt.NProcs())
	}
	if want := []dsm.HostID{0, 1, 3}; !reflect.DeepEqual(rt.Team(), want) {
		t.Fatalf("team = %v, want %v", rt.Team(), want)
	}
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("in-construct team size = %v, want [3]", sizes)
	}
	log := rt.AdaptLog()
	if len(log) != 1 || len(log[0].Applied) != 1 {
		t.Fatalf("adapt log = %+v, want one point with one event", log)
	}
	if log[0].Elapsed <= 0 || log[0].WindowBytes <= 0 {
		t.Fatalf("adaptation cost not recorded: %+v", log[0])
	}
	// Data survives re-partitioning.
	sum := rt.For("check", 0, 4096,
		func(p *Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	if sum != 4096 {
		t.Fatalf("post-leave sum = %g, want 4096", sum)
	}
}

func TestJoinGrowsTeamWhenSpawnCompletes(t *testing.T) {
	rt := newRT(t, 4, 2, true)
	Alloc[float64](rt, "v", 512)
	if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 2, At: 0}); err != nil {
		t.Fatal(err)
	}
	// The first fork happens before spawn+connect completes (~0.75 s):
	// the join must wait.
	rt.Parallel("p1", func(p *Proc) { p.Charge(0.1) })
	if rt.NProcs() != 2 {
		t.Fatalf("join applied too early: team = %d", rt.NProcs())
	}
	// Burn past the spawn time.
	rt.Parallel("p2", func(p *Proc) { p.Charge(1.0) })
	rt.Parallel("p3", func(p *Proc) {})
	if rt.NProcs() != 3 {
		t.Fatalf("team = %d, want 3 after join", rt.NProcs())
	}
}

func TestUrgentLeaveThroughRuntime(t *testing.T) {
	rt, err := New(Config{Hosts: 3, Procs: 3, Adaptive: true, Grace: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Alloc[float64](rt, "v", 2048)
	rt.For("warm", 0, 2048, func(p *Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = 2
		}
		a.WriteRange(p.Mem(), lo, buf)
	})
	// Leave raised one second into the next phase, which runs 10 s of
	// compute: the 0.5 s grace expires mid-phase, forcing migration.
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: rt.Now() + 1.0}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel("long", func(p *Proc) { p.Charge(10) })
	rt.Parallel("next", func(p *Proc) {})
	if rt.NProcs() != 2 {
		t.Fatalf("team = %d, want 2", rt.NProcs())
	}
	log := rt.AdaptLog()
	if len(log) != 1 || !log[0].Applied[0].Urgent {
		t.Fatalf("expected an urgent leave, log = %+v", log)
	}
	plan := log[0].Applied[0].Plan
	if plan == nil || plan.Cost <= rt.Cluster().Model().SpawnTime {
		t.Fatalf("urgent leave must carry a migration plan, got %+v", plan)
	}
	// Data integrity after migration + leave.
	sum := rt.For("check", 0, 2048,
		func(p *Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	if sum != 4096 {
		t.Fatalf("post-urgent-leave sum = %g, want 4096", sum)
	}
}

func TestAdaptiveNoEventsMatchesNonAdaptive(t *testing.T) {
	// Table 1's headline: in the absence of adapt events the adaptive
	// system has virtually no overhead and identical network traffic.
	run := func(adaptive bool) (int64, int64, simtime.Seconds, dsm.StatsSnapshot) {
		rt := newRT(t, 4, 4, adaptive)
		a, _ := Alloc[float64](rt, "v", 8192)
		for it := 0; it < 5; it++ {
			rt.For("phase", 0, 8192, func(p *Proc, lo, hi int) {
				buf := make([]float64, hi-lo)
				a.ReadRange(p.Mem(), lo, hi, buf)
				for i := range buf {
					buf[i] += 1
				}
				a.WriteRange(p.Mem(), lo, buf)
				p.ChargeUnits(hi-lo, simtime.Micros(0.2))
			})
		}
		w := rt.Cluster().Fabric().Snapshot()
		return w.TotalBytes(), w.TotalMessages(), rt.Now(), rt.Cluster().Stats().Snapshot()
	}
	b1, m1, t1, s1 := run(false)
	b2, m2, t2, s2 := run(true)
	if b1 != b2 || m1 != m2 {
		t.Fatalf("traffic differs: %d/%d bytes, %d/%d msgs", b1, b2, m1, m2)
	}
	if t1 != t2 {
		t.Fatalf("runtime differs: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("protocol stats differ:\n%+v\n%+v", s1, s2)
	}
}

func TestMasterProcSequentialAccess(t *testing.T) {
	rt := newRT(t, 2, 2, false)
	a, _ := Alloc[float64](rt, "v", 100)
	mp := rt.MasterProc()
	a.Set(mp.Mem(), 50, 3.5)
	if got := a.Get(mp.Mem(), 50); got != 3.5 {
		t.Fatalf("master read %g, want 3.5", got)
	}
	if mp.ID != 0 {
		t.Fatal("master proc must have id 0")
	}
}

func TestForksCountAdaptationPoints(t *testing.T) {
	rt := newRT(t, 2, 2, false)
	Alloc[float64](rt, "v", 64)
	for i := 0; i < 7; i++ {
		rt.Parallel("p", func(p *Proc) {})
	}
	if rt.Forks() != 7 {
		t.Fatalf("forks = %d, want 7", rt.Forks())
	}
}

func TestProcLockFromParallel(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	a, _ := Alloc[float64](rt, "v", 8)
	rt.Parallel("locked-sum", func(p *Proc) {
		p.Lock(1)
		a.Set(p.Mem(), 0, a.Get(p.Mem(), 0)+1)
		p.Unlock(1)
	})
	if got := a.Get(rt.MasterProc().Mem(), 0); got != 4 {
		t.Fatalf("locked counter = %g, want 4", got)
	}
}

func TestChargePanicsOnNegative(t *testing.T) {
	rt := newRT(t, 2, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	rt.MasterProc().Charge(-1)
}

// TestInvariantsAfterFullAppLifecycle runs a shared-memory workload
// through leaves, joins, GCs and checkpointable points, validating the
// DSM's global invariants at every adaptation point.
func TestInvariantsAfterFullAppLifecycle(t *testing.T) {
	rt := newRT(t, 5, 4, true)
	a, _ := Alloc[float64](rt, "v", 8192)
	events := []adapt.Event{
		{Kind: adapt.KindLeave, Host: 2, At: 0.5},
		{Kind: adapt.KindJoin, Host: 4, At: 0.8},
		{Kind: adapt.KindLeave, Host: 3, At: 2.5},
		{Kind: adapt.KindJoin, Host: 2, At: 3.0},
	}
	for _, e := range events {
		if err := rt.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	for it := 0; it < 12; it++ {
		rt.For("sweep", 0, 8192, func(p *Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			a.ReadRange(p.Mem(), lo, hi, buf)
			for i := range buf {
				buf[i] += 1
			}
			a.WriteRange(p.Mem(), lo, buf)
			p.Charge(0.4)
		})
		if err := rt.Cluster().CheckInvariants(); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}
	if got := appliedEvents(rt); got != 4 {
		t.Fatalf("applied events = %d, want 4", got)
	}
	sum := rt.For("check", 0, 8192,
		func(p *Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	if sum != 12*8192 {
		t.Fatalf("sum = %g, want %d", sum, 12*8192)
	}
}

func appliedEvents(rt *Runtime) int {
	n := 0
	for _, ap := range rt.AdaptLog() {
		n += len(ap.Applied)
	}
	return n
}

// TestEmptyParallelAllocationPin pins the host allocations of one empty
// parallel construct on 8 procs (the procs, their clocks, the engine's
// bookkeeping, the join barrier): fork and join are priced on every
// construct, so pricing them must not add one.
func TestEmptyParallelAllocationPin(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race runtime allocates a varying amount per coroutine switch")
			}
		}
	}
	rt := newRT(t, 8, 8, false)
	body := func(*Proc) {}
	rt.Parallel("warm", body)
	if n := testing.AllocsPerRun(100, func() { rt.Parallel("pin", body) }); n > 53 {
		t.Errorf("empty parallel on 8 procs allocates %v times, want <= 53", n)
	}
}
