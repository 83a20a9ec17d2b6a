package bench

import (
	"fmt"
	"math"
	"sort"

	"nowomp/internal/adapt"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// The micro-analysis of section 5.4 consists of four claims, each
// reproduced by one experiment here, plus the bottleneck observation
// that ties them together:
//
//	M2: the cost of adaptation is proportional to the maximum network
//	    traffic per link generated by the adapt event
//	M3: smaller problem sizes give proportionally smaller costs
//	M4: the cost decreases as the number of processes increases
//	M5: simultaneous adapt events are cheaper than successive ones
//	M6: repeated adaptations get cheaper (only accessed pages move)

// SizePoint is one point of the size sweep (M3).
type SizePoint struct {
	Scale    float64
	SharedMB float64
	Cost     simtime.Seconds
}

// ProcPoint is one point of the process-count sweep (M4).
type ProcPoint struct {
	Procs int
	Cost  simtime.Seconds
	// MaxLinkBytes is the adaptation's busiest-link traffic (M2).
	MaxLinkBytes int64
}

// SimulResult compares two leaves at one adaptation point against the
// same two leaves at successive points (M5).
type SimulResult struct {
	TogetherCost   simtime.Seconds
	SuccessiveCost simtime.Seconds
	TogetherGCs    int
	SuccessiveGCs  int
}

// RepeatPoint is one leave of the repeated leave/rejoin cycle (M6).
type RepeatPoint struct {
	Leave      int
	PagesMoved int
}

// MicroResult aggregates the section 5.4 experiments.
type MicroResult struct {
	SizeSweep    []SizePoint
	ProcSweep    []ProcPoint
	Simultaneous SimulResult
	Repeated     []RepeatPoint
	// LinkCorr is the Pearson correlation between adaptation cost and
	// max-per-link traffic across all single-leave experiments (M2).
	LinkCorr float64
}

// forkLeaver returns a fork hook that fires leave events at chosen fork
// indices; several slots at one index model simultaneous adapt events.
func forkLeaver(fires map[int64][]int) func(*omp.Runtime) {
	return func(rt *omp.Runtime) {
		team := rt.Team()
		for _, s := range fires[rt.Forks()] {
			if s <= 0 || s >= len(team) {
				continue
			}
			_ = rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: team[s], At: rt.Now()})
		}
	}
}

// Micro runs the section 5.4 experiments: the baselines as one list of
// cells, then every adaptive run as another.
func Micro(opt Options) (MicroResult, error) {
	opt = opt.withDefaults()
	var out MicroResult

	// The single leaves of Jacobi (the end slot, at fork 8): M3's
	// size sweep at 8 processes, then M4's process-count sweep at the
	// middle size, whose 8-process point is M3's middle one.
	mid, nbfScale := opt.Scale*1.5, table2Scale(opt, "nbf")
	type leave struct {
		scale float64
		procs int
	}
	leaves := []leave{{opt.Scale, 8}, {mid, 8}, {opt.Scale * 2, 8}, {mid, 4}, {mid, 6}}
	// M5's baselines at 6, 7 and 8 processes of the middle size are
	// among the leaves'; M6's schedule is sized from NBF's.
	keys := []baseKey{{"nbf", nbfScale, 8}}
	for _, l := range leaves {
		keys = append(keys, baseKey{"jacobi", l.scale, l.procs}, baseKey{"jacobi", l.scale, l.procs - 1})
	}
	base, err := opt.baselines("micro baselines", keys)
	if err != nil {
		return out, err
	}

	var runs []adaptCell
	for _, l := range leaves {
		runs = append(runs, adaptCell{app: "jacobi", scale: l.scale, procs: l.procs,
			base: base.sizes("jacobi", l.scale, l.procs, l.procs-1), hook: forkLeaver(map[int64][]int{8: {l.procs - 1}})})
	}
	// M5: two leaves together vs at successive adaptation points.
	for _, fires := range []map[int64][]int{{8: {7, 6}}, {8: {7}, 9: {6}}} {
		runs = append(runs, adaptCell{app: "jacobi", scale: mid, procs: 8,
			base: base.sizes("jacobi", mid, 6, 7, 8), hook: forkLeaver(fires)})
	}
	// M6: repeated leave/rejoin of the same host (NBF: the read-only
	// partner lists transfer only on the first leave).
	nbf := base[baseKey{"nbf", nbfScale, 8}]
	runs = append(runs, adaptCell{app: "nbf", scale: nbfScale, procs: 8,
		hook: newAlternator([]simtime.Seconds{nbf * 0.3, nbf * 0.7}, EndSlot).hook})
	done, err := runMatrix(opt, "micro", runs, opt.adaptCost)
	if err != nil {
		return out, err
	}

	// M2 correlates each single leave's adaptation window with its
	// max-link traffic.
	var linkX, linkY []float64
	link := func(r adaptRun) {
		linkX = append(linkX, float64(r.Log[0].WindowMaxLink))
		linkY = append(linkY, float64(r.Log[0].Elapsed))
	}
	for _, r := range done[:len(leaves)] {
		if len(r.Log) != 1 {
			return out, fmt.Errorf("bench: single leave produced %d adaptations", len(r.Log))
		}
	}
	for i, r := range done[:3] {
		out.SizeSweep = append(out.SizeSweep, SizePoint{Scale: leaves[i].scale, SharedMB: r.SharedMB, Cost: r.Cost})
		link(r)
	}
	for _, i := range []int{3, 4, 1} { // 4, 6, then the shared 8-process point
		r := done[i]
		out.ProcSweep = append(out.ProcSweep, ProcPoint{Procs: leaves[i].procs, Cost: r.Cost, MaxLinkBytes: r.Log[0].WindowMaxLink})
		link(r)
	}
	out.LinkCorr = pearson(linkX, linkY)

	together, successive := done[len(leaves)], done[len(leaves)+1]
	for _, r := range []adaptRun{together, successive} {
		if got := appliedEvents(r.Log); got != 2 {
			return out, fmt.Errorf("bench: expected 2 leaves, got %d", got)
		}
	}
	out.Simultaneous = SimulResult{
		TogetherCost: together.Cost, SuccessiveCost: successive.Cost,
		TogetherGCs: together.GCs, SuccessiveGCs: successive.GCs,
	}

	for _, ap := range done[len(done)-1].Log {
		for _, rec := range ap.Applied {
			if rec.Event.Kind == adapt.KindLeave {
				out.Repeated = append(out.Repeated, RepeatPoint{Leave: len(out.Repeated) + 1, PagesMoved: rec.Transfer.PagesMoved})
			}
		}
	}
	if len(out.Repeated) < 2 {
		return out, fmt.Errorf("bench: repeated-leave run fired %d leaves, want 2", len(out.Repeated))
	}
	return out, nil
}

// refPiecewise interpolates the baseline runtime piecewise-linearly
// over the measured integer node counts.
func refPiecewise(nbar float64, base map[int]simtime.Seconds) simtime.Seconds {
	var ns []int
	for n := range base {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for i := 0; i+1 < len(ns); i++ {
		if nbar <= float64(ns[i+1]) || i+1 == len(ns)-1 {
			return interpolateRef(nbar, ns[i], ns[i+1], base[ns[i]], base[ns[i+1]])
		}
	}
	return base[ns[0]]
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// writeMicro renders the section 5.4 results.
func writeMicro(s *sheet, _ Options, m MicroResult) {
	s.WriteString("Section 5.4 micro-analysis of adaptation costs (Jacobi unless noted)\n\n")

	s.WriteString("M3: cost vs problem size (single leave, 8 processes)\n")
	tabulate(s, "scale\tshared MB\tcost", "%.2f\t%.1f\t%.3fs", m.SizeSweep,
		func(p SizePoint) []any { return []any{p.Scale, p.SharedMB, float64(p.Cost)} }, nil)

	s.WriteString("\nM4: cost vs process count (single leave, fixed size)\n")
	tabulate(s, "procs\tcost\tmax-link bytes", "%d\t%.3fs\t%d", m.ProcSweep,
		func(p ProcPoint) []any { return []any{p.Procs, float64(p.Cost), p.MaxLinkBytes} }, nil)

	fmt.Fprintf(s, "\nM2: correlation(cost, max per-link traffic) = %.3f\n", m.LinkCorr)

	fmt.Fprintf(s, "\nM5: two leaves together %.3fs vs successive %.3fs (GCs %d vs %d)\n",
		float64(m.Simultaneous.TogetherCost), float64(m.Simultaneous.SuccessiveCost),
		m.Simultaneous.TogetherGCs, m.Simultaneous.SuccessiveGCs)

	s.WriteString("\nM6: repeated leave/rejoin of one host (NBF)\n")
	tabulate(s, "leave\tpages moved", "%d\t%d", m.Repeated,
		func(p RepeatPoint) []any { return []any{p.Leave, p.PagesMoved} }, nil)
}
