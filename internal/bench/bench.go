// Package bench regenerates every table and figure of the evaluation
// section of Scherer et al. (PPoPP 1999): Table 1 (no-cost adaptivity
// and identical traffic without adapt events), Table 2 (average cost
// per adaptation), Figure 3 (data movement vs leaving process id), the
// section 5.3 migration what-if, the section 5.4 micro-analysis, and
// the ablations the paper motivates (id reassignment, leave handoff,
// grace periods), plus the tasking, heterogeneity and coherence-
// protocol matrices.
//
// Every cell of every experiment is a scenario.Spec: Options.cell
// derives it from the options, and the cell reaches its runtime through
// scenario.Spec.Execute (registered kernels) or scenario.Spec.Start
// (the synthetic loop, lock and task bodies written here) — the same
// door nowomp-run, the farm and the fuzzer use. Nothing in this package
// constructs a runtime itself; the golden-matrix tests do, on purpose,
// as the reference that path is compared against.
//
// Experiments run at a configurable problem scale (1.0 = the paper's
// sizes); shapes — who wins, by what factor, where crossovers fall —
// are preserved across scales, which is what the reproduction checks.
package bench

import (
	"fmt"
	"io"
	"runtime"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/scenario"
	"nowomp/internal/simtime"
)

// Options configures an experiment run. The heterogeneity and protocol
// fields are the scenario spec's own compact strings (see
// scenario.Spec); they are validated when a cell's spec is normalized,
// so a malformed one fails the first cell that runs.
type Options struct {
	// Scale is the linear problem scale; 1.0 reproduces the paper's
	// sizes. The default 0.15 keeps a full regeneration under a few
	// minutes of real time.
	Scale float64
	// Hosts is the workstation pool (default 10: the paper's 8 plus
	// spares for join events).
	Hosts int
	// Pairs is the number of leave/join pairs per adaptive run in
	// Table 2-style experiments (default 3).
	Pairs int
	// Grace is the leave grace period (default: the paper's 3 s). The
	// grace ablation sweeps its own values.
	Grace simtime.Seconds
	// Machines, Loads and Links are the per-machine speed, load-trace
	// and per-link override specs (the tools' -machines/-load/-links
	// flags; empty = the homogeneous baseline). They reach every cell
	// of every experiment except the hetero and protocols matrices,
	// whose axis is the NOW shape itself: those keep their built-in
	// shapes on the baseline, and hetero appends the flags as a
	// "custom" shape when any of these or Policy is set.
	Machines, Loads, Links string
	// Policy adds a load policy to the hetero experiment's custom
	// shape (it needs Loads to watch); other experiments ignore it.
	Policy string
	// Protocol selects the DSM coherence protocol ("" = tmk) of every
	// cell, with two exceptions: the protocols matrix keeps its own
	// protocol axis, and hetero's built-in shapes stay on tmk (its
	// custom shape follows the option).
	Protocol string
	// Parallel is the worker-pool size for independent scenario cells
	// (default GOMAXPROCS; 1 runs them inline, in order). Each cell owns
	// its engine, fabric and cluster, and the deterministic engine makes
	// every cell bit-reproducible in isolation, so results are
	// byte-identical at any pool size — only the wall clock changes.
	Parallel int
	// Progress receives per-cell completion ticks with an ETA from every
	// cell list an experiment hands the pool (nil = silent). The tool
	// passes stderr; the stream is monitoring-only and never carries
	// results.
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.15
	}
	if o.Hosts <= 0 {
		o.Hosts = 10
	}
	if o.Pairs <= 0 {
		o.Pairs = 3
	}
	if o.Grace <= 0 {
		o.Grace = adapt.DefaultGrace
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// cell is the non-adaptive scenario of one experiment cell: the kernel,
// scale and team are the cell's, everything else the options'.
func (o Options) cell(kernel string, scale float64, procs int) scenario.Spec {
	return scenario.Spec{
		Kernel: kernel, Scale: scale, Procs: procs, Hosts: o.Hosts,
		Grace: float64(o.Grace), Protocol: o.Protocol,
		Machines: o.Machines, Loads: o.Loads, Links: o.Links,
	}
}

// adaptive is cell with adapt-event processing on.
func (o Options) adaptive(kernel string, scale float64, procs int) scenario.Spec {
	s := o.cell(kernel, scale, procs)
	s.Adaptive = true
	return s
}

// measured is one work phase of a synthetic cell: virtual time, fabric
// traffic and DSM counters between beginPhase and the call of the
// function it returns, so allocation and initialisation stay out of the
// numbers.
type measured struct {
	Time     simtime.Seconds
	Bytes    int64
	Messages int64
	Stats    dsm.StatsSnapshot
}

func beginPhase(rt *omp.Runtime) (end func() measured) {
	c := rt.Cluster()
	t0, net0, st0 := rt.Now(), c.Fabric().Snapshot(), c.Stats().Snapshot()
	return func() measured {
		net := c.Fabric().Snapshot().Sub(net0)
		return measured{Time: rt.Now() - t0, Bytes: net.TotalBytes(), Messages: net.TotalMessages(),
			Stats: c.Stats().Snapshot().Sub(st0)}
	}
}

// baseKey names one non-adaptive reference run: a kernel at a scale
// and a team size.
type baseKey struct {
	app   string
	scale float64
	procs int
}

// baseTimes are the runtimes of reference runs by key.
type baseTimes map[baseKey]simtime.Seconds

// baselines runs each distinct reference once, as cells of the pool,
// and returns the runtimes: the reference points of the paper's
// adaptation-cost method.
func (o Options) baselines(label string, keys []baseKey) (baseTimes, error) {
	var runs []baseKey
	seen := map[baseKey]bool{}
	for _, k := range keys {
		if k.procs < 1 { // a zero team would mean "default" to the spec
			return nil, fmt.Errorf("bench: %s baseline needs at least one process, got %d", k.app, k.procs)
		}
		if !seen[k] {
			seen[k] = true
			runs = append(runs, k)
		}
	}
	times, err := runMatrix(o, label, runs, func(k baseKey) (simtime.Seconds, error) {
		_, res, _, _, err := o.cell(k.app, k.scale, k.procs).Execute(nil, nil)
		return res.Time, err
	})
	if err != nil {
		return nil, err
	}
	base := make(baseTimes, len(runs))
	for i, k := range runs {
		base[k] = times[i]
	}
	return base, nil
}

// sizes returns the runtimes of app at scale for the given team sizes,
// by size: the points adaptCost interpolates over.
func (b baseTimes) sizes(app string, scale float64, procs ...int) map[int]simtime.Seconds {
	out := make(map[int]simtime.Seconds, len(procs))
	for _, n := range procs {
		out[n] = b[baseKey{app, scale, n}]
	}
	return out
}

// adaptCell is one adaptive run of an experiment: the kernel at scale
// from procs processes, mod and hook as scenario.Spec.Execute takes
// them (hook injects the adapt events), priced over base when it is
// set.
type adaptCell struct {
	app   string
	scale float64
	procs int
	base  map[int]simtime.Seconds
	mod   func(*omp.Config)
	hook  func(*omp.Runtime)
}

// adaptRun is what an experiment keeps of one adaptive run; the
// runtime itself is dropped with the cell.
type adaptRun struct {
	Time simtime.Seconds
	// AvgNodes is the time-weighted average team size, Ref the
	// non-adaptive runtime interpolated at it, Cost the adaptive
	// runtime's excess over Ref (all adaptations together); zero for a
	// cell without baselines.
	AvgNodes  float64
	Ref, Cost simtime.Seconds
	Log       []omp.AdaptationPoint
	GCs       int
	SharedMB  float64
}

// adaptCost is the paper's adaptation-cost method (section 5.2): run
// the kernel adaptively, and charge the adaptations the difference
// between its runtime and the non-adaptive runtime interpolated, over
// the baselines at the neighbouring team sizes, at the run's average
// node count.
func (o Options) adaptCost(c adaptCell) (adaptRun, error) {
	_, res, rt, _, err := o.adaptive(c.app, c.scale, c.procs).Execute(c.mod, c.hook)
	if err != nil {
		return adaptRun{}, err
	}
	run := adaptRun{
		Time: res.Time, Log: rt.AdaptLog(), GCs: int(rt.Cluster().Stats().GCs),
		SharedMB: float64(rt.Cluster().TotalSharedBytes()) / 1e6,
	}
	if c.base != nil {
		run.AvgNodes = avgTeamSize(rt, c.procs, res.Time)
		run.Ref = refPiecewise(run.AvgNodes, c.base)
		run.Cost = res.Time - run.Ref
	}
	return run, nil
}

// avgTeamSize returns the time-weighted average team size of a run,
// reconstructed from the adaptation log. This is the paper's "average
// number of nodes", a real number in adaptive runs.
func avgTeamSize(rt *omp.Runtime, initialProcs int, end simtime.Seconds) float64 {
	if end <= 0 {
		return float64(initialProcs)
	}
	size := float64(initialProcs)
	var last simtime.Seconds
	acc := 0.0
	for _, ap := range rt.AdaptLog() {
		t := ap.When
		if t > end {
			t = end
		}
		acc += size * float64(t-last)
		last = t
		size = float64(len(ap.TeamAfter))
	}
	acc += size * float64(end-last)
	return acc / float64(end)
}

// interpolateRef computes the paper's reference runtime for a
// fractional average node count nbar in (nlo, nhi) by linearly
// interpolating the non-adaptive runtimes tlo (at nlo nodes) and thi
// (at nhi nodes).
func interpolateRef(nbar float64, nlo, nhi int, tlo, thi simtime.Seconds) simtime.Seconds {
	if nhi == nlo {
		return tlo
	}
	frac := (nbar - float64(nlo)) / float64(nhi-nlo)
	return tlo + simtime.Seconds(frac)*(thi-tlo)
}

// alternator drives the Table 2 schedule: a leave of a chosen process
// slot at each scheduled instant, with the departed host rejoining
// right after the leave is applied, so adaptations alternate
// leave/join with at most one event per adaptation point.
type alternator struct {
	// leaveAt are the virtual instants of the leaves, ascending.
	leaveAt []simtime.Seconds
	// slot picks the leaving process slot given the team size.
	slot func(teamSize int) int

	next          int
	departed      dsm.HostID // host whose leave/rejoin cycle is open; -1 when none
	joinSubmitted bool
}

func newAlternator(leaveAt []simtime.Seconds, slot func(int) int) *alternator {
	return &alternator{leaveAt: leaveAt, slot: slot, departed: -1}
}

// hook runs at every fork (adaptation point) on the master goroutine.
func (a *alternator) hook(rt *omp.Runtime) {
	now := rt.Now()
	if a.departed >= 0 {
		active := rt.Cluster().Host(a.departed).Active()
		switch {
		case !a.joinSubmitted && !active:
			// The leave has been applied; start the rejoin. The join
			// matures after the spawn lead time.
			if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: a.departed, At: now}); err == nil {
				a.joinSubmitted = true
			}
		case a.joinSubmitted && active:
			// Cycle complete: team is back at full strength.
			a.departed = -1
			a.joinSubmitted = false
		}
		return // at most one open cycle at a time
	}
	if a.next >= len(a.leaveAt) || now < a.leaveAt[a.next] {
		return
	}
	team := rt.Team()
	slot := a.slot(len(team))
	if slot < 0 || slot >= len(team) || team[slot] == 0 {
		return // never leave the master
	}
	host := team[slot]
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: host, At: now}); err != nil {
		return
	}
	a.departed = host
	a.next++
}

// appliedEvents counts the adapt events recorded in an adaptation log.
func appliedEvents(log []omp.AdaptationPoint) int {
	n := 0
	for _, ap := range log {
		n += len(ap.Applied)
	}
	return n
}
