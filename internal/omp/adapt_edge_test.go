package omp

import (
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

// TestMultipleSimultaneousJoinsAndLeaves: several events at one
// adaptation point, including a join and two leaves, share a single
// point and leave a consistent team.
func TestMultipleSimultaneousJoinsAndLeaves(t *testing.T) {
	rt := newRT(t, 6, 4, true)
	a, _ := Alloc[float64](rt, "v", 8192)
	rt.For("w", 0, 8192, func(p *Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = 1
		}
		a.WriteRange(p.Mem(), lo, buf)
	})
	now := rt.Now()
	for _, e := range []adapt.Event{
		{Kind: adapt.KindLeave, Host: 1, At: now},
		{Kind: adapt.KindLeave, Host: 3, At: now},
		{Kind: adapt.KindJoin, Host: 4, At: now},
		{Kind: adapt.KindJoin, Host: 5, At: now},
	} {
		if err := rt.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	// Burn virtual time so the joins' spawns complete, then hit one
	// adaptation point.
	rt.Parallel("burn", func(p *Proc) { p.Charge(1.0) })
	rt.Parallel("tick", func(p *Proc) {})
	if rt.NProcs() != 4 {
		t.Fatalf("team = %d, want 4 (4 - 2 leaves + 2 joins)", rt.NProcs())
	}
	// The two leaves mature immediately and share one adaptation point
	// (and its single GC); the joins wait for their spawns and land on
	// a later point together.
	log := rt.AdaptLog()
	if len(log) != 2 {
		t.Fatalf("adaptation points = %d, want 2 (leaves batch, joins batch)", len(log))
	}
	if len(log[0].Applied) != 2 || len(log[1].Applied) != 2 {
		t.Fatalf("batch sizes = %d, %d, want 2 and 2", len(log[0].Applied), len(log[1].Applied))
	}
	if gcs := rt.Cluster().Stats().GCs; gcs != 2 {
		t.Fatalf("GCs = %d, want 2 (one per batch)", gcs)
	}
	// All data still correct across the reshuffle.
	sum := rt.For("check", 0, 8192,
		func(p *Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	if sum != 8192 {
		t.Fatalf("sum = %g, want 8192", sum)
	}
}

// TestLeaveEverySlaveSequentially shrinks an 8-process team to just
// the master, one leave per point, and the data survives.
func TestLeaveEverySlaveSequentially(t *testing.T) {
	rt := newRT(t, 8, 8, true)
	a, _ := Alloc[float64](rt, "v", 16384)
	rt.For("init", 0, 16384, func(p *Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = float64(lo + i)
		}
		a.WriteRange(p.Mem(), lo, buf)
	})
	for h := 7; h >= 1; h-- {
		if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: dsm.HostID(h), At: rt.Now()}); err != nil {
			t.Fatal(err)
		}
		rt.Parallel("tick", func(p *Proc) { p.Charge(0.01) })
		if rt.NProcs() != h {
			t.Fatalf("after leave of %d: team = %d, want %d", h, rt.NProcs(), h)
		}
	}
	// Master-only team still computes correctly.
	sum := rt.For("check", 0, 16384,
		func(p *Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, WithReduce(0, func(x, y float64) float64 { return x + y }))
	if want := float64(16383) * 16384 / 2; sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
}

// TestAdaptationDuringDynamicSchedule: dynamic scheduling and
// adaptation interleave across constructs.
func TestAdaptationDuringDynamicSchedule(t *testing.T) {
	rt := newRT(t, 4, 4, true)
	a, _ := Alloc[float64](rt, "v", 4096)
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: 0.0001}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		rt.For("dyn", 0, 4096, func(p *Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			a.ReadRange(p.Mem(), lo, hi, buf)
			for i := range buf {
				buf[i]++
			}
			a.WriteRange(p.Mem(), lo, buf)
			p.ChargeUnits(hi-lo, simtime.Micros(0.2))
		}, WithSchedule(Dynamic, 256))
	}
	if rt.NProcs() != 3 {
		t.Fatalf("team = %d, want 3", rt.NProcs())
	}
	for i := 0; i < 4096; i += 511 {
		if got := a.Get(rt.MasterProc().Mem(), i); got != 3 {
			t.Fatalf("v[%d] = %g, want 3", i, got)
		}
	}
}

// TestGracePeriodFromConfigPropagates: the runtime's default grace is
// what classifies urgency.
func TestGracePeriodFromConfigPropagates(t *testing.T) {
	rt, err := New(Config{Hosts: 3, Procs: 3, Adaptive: true, Grace: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Manager().Config().DefaultGrace; got != 42 {
		t.Fatalf("manager grace = %v, want 42", got)
	}
	// Zero means the paper's default.
	rt2, err := New(Config{Hosts: 3, Procs: 3, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Manager().Config().DefaultGrace; got != adapt.DefaultGrace {
		t.Fatalf("default grace = %v, want %v", got, adapt.DefaultGrace)
	}
}
