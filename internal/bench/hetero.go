package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nowomp/internal/adapt"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// The heterogeneity matrix exercises the per-machine/per-link cost
// model end to end: a uniform synthetic loop (every item costs one
// unit, so any divergence between schedules is caused by the machines,
// not the workload) runs across a matrix of NOW shapes under Static,
// Dynamic and Guided schedules.
//
//   - homog:        the paper's uniform switched LAN (nil model).
//   - unit-factors: an explicit all-1.0 model and explicit unit link
//     scales. Hetero() fails unless this reproduces homog bit for bit —
//     the refactor's core contract, enforced at bench time.
//   - mixed-speed:  half the team at half CPU speed. Static is pinned
//     to the slowest block; Dynamic and Guided let fast machines claim
//     more chunks.
//   - one-loaded:   one machine carries background load 2.0 (slowdown
//     3x) for the whole run.
//   - slow-link:    the master<->machine-3 pair at 4x latency and a
//     quarter bandwidth; compute is untouched but machine 3 pays more
//     for every fault, barrier and claim.
//   - flash-load:   a load spike on machine 3 sized relative to the
//     baseline runtime, with adapt events derived by a LoadPolicy: the
//     machine leaves once the spike outlives the dwell and rejoins
//     after it ends — the paper's transparent-adaptivity story closed
//     end to end, with no hand-written schedule.
//
// The committed curves live in docs/hetero-bench.md.

// HeteroRow is one (scenario, schedule) measurement.
type HeteroRow struct {
	Scenario string
	Schedule string
	// Time is the virtual work-loop time (init excluded); MB the
	// work-loop traffic, with Bytes/Messages the exact counts the
	// -json report records.
	Time     simtime.Seconds
	MB       float64
	Bytes    int64
	Messages int64
	// Leaves and Joins count policy-driven adaptations in the run.
	Leaves, Joins int
	// Verified records that every item was computed exactly once.
	Verified bool
}

// heteroUnit is the per-item compute charge of the synthetic loop.
var heteroUnit = simtime.Micros(40)

// heteroScenario describes one NOW shape.
type heteroScenario struct {
	name   string
	model  func(hosts int) *machine.Model
	links  func(*simnet.Fabric) error
	policy *adapt.LoadPolicy
}

// heteroProcs is the team size of the matrix: four processes leave
// room in the default 10-host pool for rejoin spares.
const heteroProcs = 4

// heteroDims picks item count and sweep count for the configured
// scale; the sweeps give the run enough adaptation points (and enough
// virtual seconds) for policy-driven events to mature mid-run.
func heteroDims(scale float64) (n, iters int) {
	n = 1 << 12
	for float64(n) < 1<<14*scale {
		n *= 2
	}
	iters = 40
	for float64(iters) < 150*scale {
		iters++
	}
	return n, iters
}

// Hetero runs the matrix. The flash-load scenario derives its spike
// and policy from the homogeneous Static baseline time, so the same
// shape reproduces at any scale.
func Hetero(opt Options) ([]HeteroRow, error) {
	opt = opt.withDefaults()
	if opt.Hosts <= heteroProcs {
		return nil, fmt.Errorf("bench: hetero needs more than %d hosts, got %d", heteroProcs, opt.Hosts)
	}

	// Baseline first: the flash-load scenario is sized from its time.
	base, err := heteroRun(opt, heteroScenario{name: "homog"}, omp.Static, 0)
	if err != nil {
		return nil, err
	}
	rows := []HeteroRow{base}

	scenarios := heteroScenarios(opt, base.Time)
	if opt.Machine != nil || opt.Links != nil || opt.Policy != nil {
		// The tools' -machines/-load/-links/-policy flags land here as a
		// custom scenario appended to the built-in matrix.
		custom := heteroScenario{name: "custom", links: opt.Links, policy: opt.Policy}
		if opt.Machine != nil {
			custom.model = func(int) *machine.Model { return opt.Machine }
		}
		if custom.policy != nil && opt.Machine == nil {
			return nil, fmt.Errorf("bench: a -policy needs -load traces to watch")
		}
		scenarios = append(scenarios, custom)
	}

	type cell struct {
		sc    heteroScenario
		sched omp.Schedule
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
			if sc.name == "homog" && sched == omp.Static {
				continue // already measured as the baseline
			}
			cells = append(cells, cell{sc, sched})
		}
	}
	cellRows := make([]HeteroRow, len(cells))
	err = opt.runMatrix("hetero", len(cells), func(i int) error {
		row, err := heteroRun(opt, cells[i].sc, cells[i].sched, 0)
		cellRows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, cellRows...)

	// Enforce the bit-identity contract: unit factors must reproduce
	// the baseline exactly, for every schedule. Under the old
	// goroutine-race loop runtime the claim-based schedules carried a
	// little real-time jitter in their fault traffic and compared only
	// within a tolerance; on the discrete-event engine every schedule
	// is fully deterministic, so any difference at all is a real
	// cost-model divergence.
	for _, r := range rows {
		if r.Scenario != "unit-factors" {
			continue
		}
		for _, b := range rows {
			if b.Scenario != "homog" || b.Schedule != r.Schedule {
				continue
			}
			if r.Time != b.Time || r.MB != b.MB {
				return nil, fmt.Errorf(
					"bench: unit-factors/%s diverged from homog: %.9fs vs %.9fs, %.6f MB vs %.6f MB",
					r.Schedule, float64(r.Time), float64(b.Time), r.MB, b.MB)
			}
		}
	}
	return rows, nil
}

// heteroScenarios builds the matrix for the given baseline time.
func heteroScenarios(opt Options, baseTime simtime.Seconds) []heteroScenario {
	spikeStart := baseTime * 0.2
	spikeEnd := baseTime * 0.6
	dwell := baseTime * 0.05
	policy := adapt.LoadPolicy{High: 2, Low: 0.5, Dwell: dwell}

	return []heteroScenario{
		{name: "homog"},
		{
			name: "unit-factors",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				for i := 0; i < hosts; i++ {
					m.SetSpeed(simnet.MachineID(i), 1)
				}
				return m
			},
			links: func(f *simnet.Fabric) error {
				f.SetDuplexScale(0, 1, 1, 1)
				return nil
			},
		},
		{
			name: "mixed-speed",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				m.SetSpeed(2, 0.5)
				m.SetSpeed(3, 0.5)
				return m
			},
		},
		{
			name: "one-loaded",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				tr, err := machine.NewTrace(machine.Step{At: 0, Load: 2})
				if err != nil {
					panic(err)
				}
				m.SetLoad(3, tr)
				return m
			},
		},
		{
			name: "slow-link",
			links: func(f *simnet.Fabric) error {
				f.SetDuplexScale(0, 3, 4, 0.25)
				return nil
			},
		},
		{
			name: "flash-load",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				tr, err := machine.NewTrace(
					machine.Step{At: spikeStart, Load: 4},
					machine.Step{At: spikeEnd, Load: 0})
				if err != nil {
					panic(err)
				}
				m.SetLoad(3, tr)
				return m
			},
			policy: &policy,
		},
	}
}

// heteroRun measures one (scenario, schedule) cell. extraIters (tests
// only) stretches the run.
func heteroRun(opt Options, sc heteroScenario, sched omp.Schedule, extraIters int) (HeteroRow, error) {
	n, iters := heteroDims(opt.Scale)
	iters += extraIters
	row := HeteroRow{Scenario: sc.name, Schedule: sched.String()}

	var mm *machine.Model
	if sc.model != nil {
		mm = sc.model(opt.Hosts)
	}
	cfg := omp.Config{
		Hosts:   opt.Hosts,
		Procs:   heteroProcs,
		Machine: mm,
		Links:   sc.links,
	}
	if sc.policy != nil {
		cfg.Adaptive = true
		cfg.Grace = opt.Grace
	}
	rt, err := omp.New(cfg)
	if err != nil {
		return row, err
	}
	if sc.policy != nil {
		if _, err := rt.ApplyLoadPolicy(*sc.policy); err != nil {
			return row, err
		}
	}

	out, err := omp.Alloc[float64](rt, "hetero.out", n)
	if err != nil {
		return row, err
	}
	rt.For("hetero.init", 0, n, func(p *omp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		out.WriteRange(p.Mem(), lo, buf)
	})

	var opts []omp.ForOption
	switch sched {
	case omp.Dynamic:
		opts = append(opts, omp.WithSchedule(omp.Dynamic, max(16, n/64)))
	case omp.Guided:
		opts = append(opts, omp.WithSchedule(omp.Guided, 16))
	}

	t0 := rt.Now()
	net0 := rt.Cluster().Fabric().Snapshot()
	for it := 0; it < iters; it++ {
		rt.For("hetero.work", 0, n, func(p *omp.Proc, lo, hi int) {
			fillOnes(out, p.Mem(), lo, hi)
			p.ChargeUnits(hi-lo, heteroUnit)
		}, opts...)
	}
	row.Time = rt.Now() - t0
	window := rt.Cluster().Fabric().Snapshot().Sub(net0)
	row.Bytes = window.TotalBytes()
	row.Messages = window.TotalMessages()
	row.MB = float64(row.Bytes) / 1e6

	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			if rec.Event.Kind == adapt.KindLeave {
				row.Leaves++
			} else {
				row.Joins++
			}
		}
	}

	// Every item must have been written exactly once per sweep by the
	// last writer's schedule — the loop writes 1 unconditionally, so
	// verification checks presence, not accumulation.
	mp := rt.MasterProc()
	buf := make([]float64, n)
	out.ReadRange(mp.Mem(), 0, n, buf)
	row.Verified = true
	for i, v := range buf {
		if v != 1 {
			return row, fmt.Errorf("bench: hetero %s/%s item %d = %g, want 1", sc.name, sched, i, v)
		}
	}
	return row, nil
}

// FormatHetero renders the matrix.
func FormatHetero(rows []HeteroRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Heterogeneous NOW matrix: uniform loop under three schedules")
	fmt.Fprintln(&b, "(virtual work-loop time; leaves/joins are policy-driven adaptations)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tschedule\ttime\tMB\tleaves\tjoins\tverified")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.3fs\t%.3f\t%d\t%d\t%v\n",
			r.Scenario, r.Schedule, float64(r.Time), r.MB, r.Leaves, r.Joins, r.Verified)
	}
	w.Flush()
	return b.String()
}
