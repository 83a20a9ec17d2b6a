package bench

import (
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// TestAlternatorCycles drives the Table 2 scheduler against a synthetic
// program and checks the leave/join alternation invariants: at most
// one open cycle, every scheduled leave eventually fires, every
// departed host rejoins.
func TestAlternatorCycles(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "v", 1024); err != nil {
		t.Fatal(err)
	}
	alt := newAlternator([]simtime.Seconds{1, 5}, EndSlot)
	rt.SetForkHook(alt.hook)

	// Enough constructs, each long enough for spawns to mature.
	for i := 0; i < 20; i++ {
		rt.Parallel("tick", func(p *omp.Proc) { p.Charge(0.5) })
	}

	log := rt.AdaptLog()
	var leaves, joins int
	open := 0
	for _, ap := range log {
		for _, rec := range ap.Applied {
			switch rec.Event.Kind {
			case adapt.KindLeave:
				leaves++
				open++
			case adapt.KindJoin:
				joins++
				open--
			}
			if open < 0 || open > 1 {
				t.Fatalf("alternation broken: %d open cycles", open)
			}
		}
	}
	if leaves != 2 || joins != 2 {
		t.Fatalf("leaves = %d, joins = %d, want 2 and 2", leaves, joins)
	}
	if rt.NProcs() != 4 {
		t.Fatalf("final team = %d, want 4 (all rejoined)", rt.NProcs())
	}
}

// TestAlternatorNeverLeavesMaster: with a one-process team the slot
// function points at the master and the alternator must not fire.
func TestAlternatorNeverLeavesMaster(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "v", 64); err != nil {
		t.Fatal(err)
	}
	alt := newAlternator([]simtime.Seconds{0}, EndSlot)
	rt.SetForkHook(alt.hook)
	for i := 0; i < 3; i++ {
		rt.Parallel("tick", func(p *omp.Proc) { p.Charge(0.1) })
	}
	if got := appliedEvents(rt.AdaptLog()); got != 0 {
		t.Fatalf("alternator fired %d events on a master-only team", got)
	}
}

// TestAvgTeamSizeWeighting checks the paper's "average number of
// nodes" computation directly.
func TestAvgTeamSizeWeighting(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "v", 64); err != nil {
		t.Fatal(err)
	}
	// No adaptations: the average is the team size.
	if got := avgTeamSize(rt, 4, 10); got != 4 {
		t.Fatalf("avg = %g, want 4", got)
	}
	// After a leave roughly halfway, the average sits between 3 and 4.
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 3, At: 0.9}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel("a", func(p *omp.Proc) { p.Charge(1.0) })
	rt.Parallel("b", func(p *omp.Proc) { p.Charge(1.0) })
	got := avgTeamSize(rt, 4, rt.Now())
	if got <= 3 || got >= 4 {
		t.Fatalf("avg = %g, want in (3,4)", got)
	}
	// Degenerate end time.
	if got := avgTeamSize(rt, 4, 0); got != 4 {
		t.Fatalf("avg at t=0 = %g, want initial size", got)
	}
}

// TestForkLeaverSkipsInvalidSlots guards the micro harness.
func TestForkLeaverSkipsInvalidSlots(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 3, Procs: 3, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "v", 64); err != nil {
		t.Fatal(err)
	}
	rt.SetForkHook(forkLeaver(map[int64][]int{1: {0, -1, 99, 2}}))
	rt.Parallel("a", func(p *omp.Proc) {})
	rt.Parallel("b", func(p *omp.Proc) {})
	if got := appliedEvents(rt.AdaptLog()); got != 1 {
		t.Fatalf("applied = %d, want 1 (only slot 2 is valid)", got)
	}
	if rt.NProcs() != 2 {
		t.Fatalf("team = %d, want 2", rt.NProcs())
	}
}
