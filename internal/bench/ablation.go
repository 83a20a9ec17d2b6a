package bench

import (
	"fmt"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// AblationResult collects the design-choice experiments that section 7
// of the paper motivates as future work: process-id reassignment
// strategies, relieving the leave-via-master bottleneck, and grace-
// period tuning.
type AblationResult struct {
	Reassign []ReassignRow
	Handoff  []HandoffRow
	Grace    []GraceRow
}

// ReassignRow compares id-reassignment strategies for a middle leave.
type ReassignRow struct {
	Strategy  string
	Cost      simtime.Seconds
	MovedFrac float64
}

// HandoffRow compares leave-state handoff strategies.
type HandoffRow struct {
	Strategy     string
	LeaveElapsed simtime.Seconds
	MaxLinkBytes int64
}

// GraceRow is one point of the grace-period sweep: whether the leave
// went urgent and what it cost end to end.
type GraceRow struct {
	Grace     simtime.Seconds
	Urgent    bool
	RunTime   simtime.Seconds
	Migration simtime.Seconds // image-transfer cost, zero for normal leaves
}

// Ablation runs all three ablations, each sweep a list of cells.
func Ablation(opt Options) (AblationResult, error) {
	opt = opt.withDefaults()
	var out AblationResult
	var err error
	if out.Reassign, err = reassignAblation(opt); err != nil {
		return out, err
	}
	if out.Handoff, err = handoffAblation(opt); err != nil {
		return out, err
	}
	if out.Grace, err = runMatrix(opt, "ablation grace", []simtime.Seconds{0.5, 2, 5, 30},
		func(grace simtime.Seconds) (GraceRow, error) { return graceRun(opt, grace) }); err != nil {
		return out, err
	}
	return out, nil
}

// reassignAblation measures a middle leave from 8 Jacobi processes
// under both id-reassignment strategies. Shift-down moves the paper's
// ~30% of the data space; swap-last relocates the end process's whole
// partition into the hole, which the geometry predicts is *worse* —
// reproducing why the paper calls better reassignment an open problem.
func reassignAblation(opt Options) ([]ReassignRow, error) {
	base, err := opt.baselines("ablation baselines", []baseKey{{"jacobi", opt.Scale, 7}, {"jacobi", opt.Scale, 8}})
	if err != nil {
		return nil, err
	}
	strategies := []adapt.ReassignStrategy{adapt.ShiftDown, adapt.SwapLast}
	var runs []adaptCell
	for _, strat := range strategies {
		runs = append(runs, adaptCell{app: "jacobi", scale: opt.Scale, procs: 8, base: base.sizes("jacobi", opt.Scale, 7, 8),
			mod: func(cfg *omp.Config) { cfg.Reassign = strat }, hook: forkLeaver(map[int64][]int{8: {MiddleSlot(8)}})})
	}
	done, err := runMatrix(opt, "ablation reassign", runs, opt.adaptCost)
	if err != nil {
		return nil, err
	}
	var rows []ReassignRow
	for i, run := range done {
		if n := len(run.Log); n != 1 {
			return nil, fmt.Errorf("bench: reassign ablation fired %d adaptations", n)
		}
		rows = append(rows, ReassignRow{
			Strategy:  strategies[i].String(),
			Cost:      run.Cost,
			MovedFrac: movedFraction(strategies[i], MiddleSlot(8), 8),
		})
	}
	return rows, nil
}

// movedFraction predicts the re-partitioned data fraction for a leave
// of the given slot under each strategy (block partition geometry).
func movedFraction(s adapt.ReassignStrategy, slot, t int) float64 {
	if s == adapt.ShiftDown {
		return Fig3Theory(slot, t)
	}
	// Swap-last: hosts keep their slots except the last host, which
	// fills the hole.
	tn := t - 1
	frac := 0.0
	for p := 0; p < tn; p++ {
		newLo, newHi := float64(p)/float64(tn), float64(p+1)/float64(tn)
		var oldLo, oldHi float64
		switch {
		case p == slot: // the relocated end host
			oldLo, oldHi = float64(t-1)/float64(t), 1
		default:
			oldLo, oldHi = float64(p)/float64(t), float64(p+1)/float64(t)
		}
		overlap := max(0, min(newHi, oldHi)-max(newLo, oldLo))
		frac += (newHi - newLo) - overlap
	}
	return frac
}

// handoffAblation measures the leave's state-transfer under the
// paper's via-master algorithm versus the direct-handoff improvement
// it suggests: spreading the leaver's pages over the remaining hosts
// relieves the master-link bottleneck.
func handoffAblation(opt Options) ([]HandoffRow, error) {
	strategies := []dsm.LeaveStrategy{dsm.LeaveViaMaster, dsm.LeaveDirectHandoff}
	var runs []adaptCell
	for _, strat := range strategies {
		runs = append(runs, adaptCell{app: "jacobi", scale: opt.Scale, procs: 8,
			mod: func(cfg *omp.Config) { cfg.LeaveStrategy = strat }, hook: forkLeaver(map[int64][]int{8: {EndSlot(8)}})})
	}
	done, err := runMatrix(opt, "ablation handoff", runs, opt.adaptCost)
	if err != nil {
		return nil, err
	}
	var rows []HandoffRow
	for i, run := range done {
		if len(run.Log) != 1 {
			return nil, fmt.Errorf("bench: handoff ablation fired %d adaptations", len(run.Log))
		}
		rows = append(rows, HandoffRow{
			Strategy:     strategies[i].String(),
			LeaveElapsed: run.Log[0].Elapsed,
			MaxLinkBytes: run.Log[0].WindowMaxLink,
		})
	}
	return rows, nil
}

// graceRun is one point of the grace-period sweep against a fixed 10 s
// parallel phase with a leave raised 1 s in: short grace periods force
// urgent leaves (migration + multiplexing), long ones allow a normal
// leave at the phase boundary — Figure 2's trichotomy made
// quantitative.
func graceRun(opt Options, grace simtime.Seconds) (GraceRow, error) {
	spec := opt.adaptive("", opt.Scale, 3) // the body below is the cell's own
	spec.Grace = float64(grace)
	_, rt, _, err := spec.Start(nil)
	if err != nil {
		return GraceRow{}, err
	}
	a, err := omp.Alloc[float64](rt, "work", 64*1024)
	if err != nil {
		return GraceRow{}, err
	}
	rt.For("warm", 0, a.Len(), func(p *omp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = 1
		}
		a.WriteRange(p.Mem(), lo, buf)
	})
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: rt.Now() + 1}); err != nil {
		return GraceRow{}, err
	}
	rt.Parallel("long-phase", func(p *omp.Proc) { p.Charge(10) })
	rt.Parallel("after", func(p *omp.Proc) {})

	log := rt.AdaptLog()
	if len(log) != 1 || len(log[0].Applied) != 1 {
		return GraceRow{}, fmt.Errorf("bench: grace sweep %v fired %d adaptations", grace, len(log))
	}
	rec := log[0].Applied[0]
	row := GraceRow{Grace: grace, Urgent: rec.Urgent, RunTime: rt.Now()}
	if rec.Plan != nil {
		row.Migration = rec.Plan.Cost
	}
	return row, nil
}

// writeAblation renders the three ablations.
func writeAblation(s *sheet, _ Options, a AblationResult) {
	s.WriteString("Ablation A1: id reassignment for a middle leave (8-process Jacobi)\n")
	tabulate(s, "strategy\tcost\tpredicted moved fraction", "%s\t%.3fs\t%.1f%%", a.Reassign,
		func(r ReassignRow) []any { return []any{r.Strategy, float64(r.Cost), 100 * r.MovedFrac} }, nil)

	s.WriteString("\nAblation A2: leave state handoff (8-process Jacobi, end leave)\n")
	tabulate(s, "strategy\tleave elapsed\tmax-link bytes", "%s\t%.3fs\t%d", a.Handoff,
		func(r HandoffRow) []any { return []any{r.Strategy, float64(r.LeaveElapsed), r.MaxLinkBytes} }, nil)

	s.WriteString("\nAblation A3: grace-period sweep (leave 1 s into a 10 s phase)\n")
	tabulate(s, "grace\turgent\trun time\tmigration cost", "%.1fs\t%v\t%.2fs\t%.2fs", a.Grace,
		func(r GraceRow) []any {
			return []any{float64(r.Grace), r.Urgent, float64(r.RunTime), float64(r.Migration)}
		}, nil)
}
