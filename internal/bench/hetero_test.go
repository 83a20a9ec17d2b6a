package bench

import (
	"strings"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/scenario"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

func heteroTiny() Options { return Options{Scale: 0.06, Hosts: 10} }

// TestHeteroMatrixShapes runs the full matrix at tiny scale and pins
// the shapes the committed curves record. The unit-factors-vs-homog
// bit-identity check runs inside Hetero itself; reaching rows at all
// means it held.
func TestHeteroMatrixShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("hetero matrix is a multi-run experiment")
	}
	rows, err := Hetero(heteroTiny())
	if err != nil {
		t.Fatal(err)
	}
	cell := func(scenario, sched string) HeteroRow {
		for _, r := range rows {
			if r.Scenario == scenario && r.Schedule == sched {
				return r
			}
		}
		t.Fatalf("missing cell %s/%s", scenario, sched)
		return HeteroRow{}
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s/%s not verified", r.Scenario, r.Schedule)
		}
	}

	// Static on mixed speeds is pinned to the slow block: the loop
	// doubles the slow machines' compute, so the whole construct slows
	// by nearly 2x; the dynamic schedules beat it.
	if s, h := cell("mixed-speed", "static"), cell("homog", "static"); s.Time < h.Time*15/10 {
		t.Errorf("mixed-speed static %.3fs not ~2x homog static %.3fs", float64(s.Time), float64(h.Time))
	}
	if g, s := cell("mixed-speed", "guided"), cell("mixed-speed", "static"); g.Time >= s.Time {
		t.Errorf("guided (%v) must beat static (%v) on mixed speeds", g.Time, s.Time)
	}
	// One loaded machine (slowdown 3x): dynamic claims route around it.
	if d, s := cell("one-loaded", "dynamic"), cell("one-loaded", "static"); d.Time >= s.Time {
		t.Errorf("dynamic (%v) must beat static (%v) with one loaded machine", d.Time, s.Time)
	}
	// A slow link prices faults and barriers, not compute: static
	// slows, but far less than a slow machine does.
	ss, hs := cell("slow-link", "static"), cell("homog", "static")
	if ss.Time <= hs.Time {
		t.Errorf("slow link must cost static something: %v vs %v", ss.Time, hs.Time)
	}
	if ss.Time > hs.Time*12/10 {
		t.Errorf("slow link cost (%v vs %v) should stay small for a compute-bound loop", ss.Time, hs.Time)
	}
	// The flash-load policy must fire a leave and a rejoin under every
	// schedule.
	for _, sched := range []string{"static", "dynamic", "guided"} {
		r := cell("flash-load", sched)
		if r.Leaves != 1 || r.Joins != 1 {
			t.Errorf("flash-load/%s: %d leaves, %d joins; want 1 and 1", sched, r.Leaves, r.Joins)
		}
	}
	if out := render(writeHetero, rows); !strings.Contains(out, "flash-load") || !strings.Contains(out, "scenario") {
		t.Errorf("hetero output missing content:\n%s", out)
	}
}

// TestHeteroPolicyDeterministic pins the acceptance criterion that a
// policy-driven leave->rejoin run is deterministic: two identical runs
// produce the same virtual time, traffic and adaptation log.
func TestHeteroPolicyDeterministic(t *testing.T) {
	opt := heteroTiny().withDefaults()
	base, err := heteroRun(opt, nowShape{name: "homog"}, omp.Static)
	if err != nil {
		t.Fatal(err)
	}
	flash := nowShapes(base.Time, "flash-load")[0]
	if flash.policy == "" {
		t.Fatal("flash-load shape lost its policy")
	}
	// The static schedule is lock-free and therefore fully
	// deterministic: two runs must agree bit for bit, adaptations
	// included.
	a, err := heteroRun(opt, flash, omp.Static)
	if err != nil {
		t.Fatal(err)
	}
	b, err := heteroRun(opt, flash, omp.Static)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("policy-driven runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Leaves != 1 || a.Joins != 1 {
		t.Errorf("expected one leave and one rejoin, got %+v", a)
	}
	// The claim-based schedules are fully deterministic on the engine:
	// two runs must agree bit for bit, lock-grant order included (under
	// the old goroutine-race loop runtime this only held to ~1%).
	d1, err := heteroRun(opt, flash, omp.Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := heteroRun(opt, flash, omp.Dynamic)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("dynamic runs diverged:\n%+v\n%+v", d1, d2)
	}
}

// TestUnitFactorsBitIdenticalOnApps pins the unit-factor contract on a
// real kernel: an explicit all-unit machine model plus explicitly
// configured unit link scales must reproduce the nil-model run of
// jacobi exactly — virtual time, traffic counters and FP checksum, bit
// for bit. Both runs go through the same formulas of machine.Costs;
// what differs is whether each 1.0 is implied (nil model, no link
// table) or looked up. Adaptive runs with a leave/join schedule are
// covered too, so every charge site in dsm, omp and adapt is compared.
// That those formulas equal the calibrated baseline is machine's
// TestHomogeneousBitIdentity and the golden matrices.
func TestUnitFactorsBitIdenticalOnApps(t *testing.T) {
	type fingerprint struct {
		Time     simtime.Seconds
		Bytes    int64
		Messages int64
		Diffs    int64
		Checksum float64
	}
	unitLinks := func(f *simnet.Fabric) error {
		f.SetDuplexScale(0, 1, 1, 1)
		f.SetDuplexScale(2, 3, 1, 1)
		return nil
	}
	// Jacobi at scale 0.15 runs ~1.9 virtual seconds; the leave applies
	// early and the join (which matures only after the ~0.75 s spawn
	// lead) lands mid-run.
	events, err := adapt.ParseSchedule("0.1:leave:3,0.15:join:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, adaptive := range []bool{false, true} {
		run := func(mod func(*omp.Config)) fingerprint {
			var submitted bool
			hook := func(rt *omp.Runtime) {
				if submitted || !adaptive {
					return
				}
				submitted = true
				for _, ev := range events {
					if err := rt.Submit(ev); err != nil {
						t.Fatal(err)
					}
				}
			}
			_, res, rt, _, err := scenario.Spec{Kernel: "jacobi", Scale: 0.15, Procs: 4, Hosts: 6, Adaptive: adaptive}.
				Execute(mod, hook)
			if err != nil {
				t.Fatal(err)
			}
			if adaptive && appliedEvents(rt.AdaptLog()) != 2 {
				t.Fatalf("schedule applied %d events, want 2", appliedEvents(rt.AdaptLog()))
			}
			return fingerprint{res.Time, res.Bytes, res.Messages, res.Diffs, res.Checksum}
		}
		unit := func(cfg *omp.Config) {
			cfg.Machine = machine.New(6)
			cfg.Links = unitLinks
		}
		got, want := run(unit), run(nil)
		if got != want {
			t.Errorf("adaptive=%v: unit-factor run diverged from baseline:\n%+v\n%+v", adaptive, got, want)
		}
	}
}

// TestHeteroPolicyScheduleRoundTrip pins that the events a policy
// derives survive the schedule formatter/parser round trip: the tools
// can echo a policy's decisions back as an ordinary -schedule string.
func TestHeteroPolicyScheduleRoundTrip(t *testing.T) {
	opt := heteroTiny().withDefaults()
	base, err := heteroRun(opt, nowShape{name: "homog"}, omp.Static)
	if err != nil {
		t.Fatal(err)
	}
	flash := nowShapes(base.Time, "flash-load")[0]
	mm := machine.New(opt.Hosts)
	if err := machine.ParseLoads(mm, flash.loads); err != nil {
		t.Fatal(err)
	}
	policy, err := adapt.ParsePolicy(flash.policy)
	if err != nil {
		t.Fatal(err)
	}
	events, err := policy.Derive(
		map[dsm.HostID]machine.Trace{3: mm.Load(3)}, []dsm.HostID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != adapt.KindLeave || events[1].Kind != adapt.KindJoin {
		t.Fatalf("derived events %v, want leave then join for host 3", events)
	}
	out := adapt.FormatSchedule(events)
	again, err := adapt.ParseSchedule(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	for i := range events {
		if events[i] != again[i] {
			t.Errorf("event %d changed in round trip: %+v vs %+v", i, events[i], again[i])
		}
	}
}
