package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

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

// leavePoint is one single-leave measurement: the leave's cost by the
// paper's baseline method, the adaptation window's own cost and
// max-link traffic (the pair whose proportionality section 5.4 claims),
// and the shared-memory size.
type leavePoint struct {
	cost, windowCost simtime.Seconds
	maxLink          int64
	sharedMB         float64
}

// singleLeaveCost measures one leave (end slot) from procs processes of
// Jacobi at the given scale.
func singleLeaveCost(opt Options, scale float64, procs int) (leavePoint, error) {
	base, err := opt.baselines("jacobi", scale, procs, procs-1)
	if err != nil {
		return leavePoint{}, err
	}
	run, err := opt.adaptCost("jacobi", scale, procs, base, nil, forkLeaver(map[int64][]int{8: {procs - 1}}))
	if err != nil {
		return leavePoint{}, err
	}
	log := run.RT.AdaptLog()
	if len(log) != 1 {
		return leavePoint{}, fmt.Errorf("bench: single leave produced %d adaptations", len(log))
	}
	return leavePoint{
		cost: run.Cost, windowCost: log[0].Elapsed, maxLink: log[0].WindowMaxLink,
		sharedMB: float64(run.RT.Cluster().TotalSharedBytes()) / 1e6,
	}, nil
}

// Micro runs the section 5.4 experiments.
func Micro(opt Options) (MicroResult, error) {
	opt = opt.withDefaults()
	var out MicroResult
	var linkX, linkY []float64
	link := func(p leavePoint) {
		linkX = append(linkX, float64(p.maxLink))
		linkY = append(linkY, float64(p.windowCost))
	}

	// M3: size sweep at 8 processes. Its middle point is also M4's
	// 8-process point, measured once.
	midScale := opt.Scale * 1.5
	var mid leavePoint
	for _, scale := range []float64{opt.Scale, midScale, opt.Scale * 2} {
		p, err := singleLeaveCost(opt, scale, 8)
		if err != nil {
			return out, err
		}
		if scale == midScale {
			mid = p
		}
		out.SizeSweep = append(out.SizeSweep, SizePoint{Scale: scale, SharedMB: p.sharedMB, Cost: p.cost})
		link(p)
	}

	// M4: process-count sweep at fixed size.
	for _, procs := range []int{4, 6, 8} {
		p := mid
		if procs != 8 {
			var err error
			if p, err = singleLeaveCost(opt, midScale, procs); err != nil {
				return out, err
			}
		}
		out.ProcSweep = append(out.ProcSweep, ProcPoint{Procs: procs, Cost: p.cost, MaxLinkBytes: p.maxLink})
		link(p)
	}
	out.LinkCorr = pearson(linkX, linkY)

	// M5: two leaves together vs at successive adaptation points.
	simul, err := simultaneousVsSuccessive(opt)
	if err != nil {
		return out, err
	}
	out.Simultaneous = simul

	// M6: repeated leave/rejoin of the same host (NBF: the read-only
	// partner lists transfer only on the first leave).
	rep, err := repeatedLeaves(opt)
	if err != nil {
		return out, err
	}
	out.Repeated = rep
	return out, nil
}

func simultaneousVsSuccessive(opt Options) (SimulResult, error) {
	scale := opt.Scale * 1.5
	base, err := opt.baselines("jacobi", scale, 6, 7, 8)
	if err != nil {
		return SimulResult{}, err
	}
	run := func(fires map[int64][]int) (simtime.Seconds, int, error) {
		r, err := opt.adaptCost("jacobi", scale, 8, base, nil, forkLeaver(fires))
		if err != nil {
			return 0, 0, err
		}
		if got := appliedEvents(r.RT); got != 2 {
			return 0, 0, fmt.Errorf("bench: expected 2 leaves, got %d", got)
		}
		return r.Cost, int(r.RT.Cluster().Stats().GCs.Load()), nil
	}
	together, gcT, err := run(map[int64][]int{8: {7, 6}})
	if err != nil {
		return SimulResult{}, err
	}
	successive, gcS, err := run(map[int64][]int{8: {7}, 9: {6}})
	if err != nil {
		return SimulResult{}, err
	}
	return SimulResult{
		TogetherCost: together, SuccessiveCost: successive,
		TogetherGCs: gcT, SuccessiveGCs: gcS,
	}, nil
}

func repeatedLeaves(opt Options) ([]RepeatPoint, error) {
	scale := table2Scale(opt, "nbf")
	base, err := opt.baselines("nbf", scale, 8)
	if err != nil {
		return nil, err
	}
	alt := newAlternator([]simtime.Seconds{base[8] * 0.3, base[8] * 0.7}, EndSlot)
	_, _, rt, _, err := opt.adaptive("nbf", scale, 8).Execute(nil, alt.hook)
	if err != nil {
		return nil, err
	}
	var points []RepeatPoint
	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			if rec.Event.Kind == adapt.KindLeave {
				points = append(points, RepeatPoint{Leave: len(points) + 1, PagesMoved: rec.Transfer.PagesMoved})
			}
		}
	}
	if len(points) < 2 {
		return nil, fmt.Errorf("bench: repeated-leave run fired %d leaves, want 2", len(points))
	}
	return points, nil
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

// FormatMicro renders the section 5.4 results.
func FormatMicro(m MicroResult) string {
	var b strings.Builder
	b.WriteString("Section 5.4 micro-analysis of adaptation costs (Jacobi unless noted)\n\n")

	b.WriteString("M3: cost vs problem size (single leave, 8 processes)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scale\tshared MB\tcost")
	for _, p := range m.SizeSweep {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.3fs\n", p.Scale, p.SharedMB, float64(p.Cost))
	}
	w.Flush()

	b.WriteString("\nM4: cost vs process count (single leave, fixed size)\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "procs\tcost\tmax-link bytes")
	for _, p := range m.ProcSweep {
		fmt.Fprintf(w, "%d\t%.3fs\t%d\n", p.Procs, float64(p.Cost), p.MaxLinkBytes)
	}
	w.Flush()

	fmt.Fprintf(&b, "\nM2: correlation(cost, max per-link traffic) = %.3f\n", m.LinkCorr)

	fmt.Fprintf(&b, "\nM5: two leaves together %.3fs vs successive %.3fs (GCs %d vs %d)\n",
		float64(m.Simultaneous.TogetherCost), float64(m.Simultaneous.SuccessiveCost),
		m.Simultaneous.TogetherGCs, m.Simultaneous.SuccessiveGCs)

	b.WriteString("\nM6: repeated leave/rejoin of one host (NBF)\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "leave\tpages moved")
	for _, p := range m.Repeated {
		fmt.Fprintf(w, "%d\t%d\n", p.Leave, p.PagesMoved)
	}
	w.Flush()
	return b.String()
}
