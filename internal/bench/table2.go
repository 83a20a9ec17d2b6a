package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nowomp/internal/simtime"
)

// Table2Cell is one cell of the paper's Table 2: the average cost of
// repeated adaptations between n and n-1 processes, with the leaving
// process chosen at the end or the middle of the id range.
type Table2Cell struct {
	App    string
	N      int    // adaptations oscillate between N and N-1 processes
	Leaver string // "end" or "middle"
	// AvgCost is the average time per adaptation, computed with the
	// paper's methodology: (adaptive runtime - non-adaptive runtime
	// interpolated at the average node count) / number of adaptations.
	AvgCost simtime.Seconds
	// Adaptations is the number of adapt events actually applied.
	Adaptations int
	// AvgNodes is the time-weighted average team size.
	AvgNodes float64
	// AdaTime and RefTime are the measured adaptive runtime and the
	// interpolated baseline.
	AdaTime simtime.Seconds
	RefTime simtime.Seconds
}

// table2Scales gives each application a scale floor that keeps its
// runtime long enough (tens of virtual seconds) for leave/join cycles
// with real spawn times and grace periods to fit; the physics
// constants (0.7 s spawn, 3 s grace) do not shrink with problem scale.
var table2Scales = map[string]float64{
	"jacobi": 0.36,
	"gauss":  0.36,
	"fft3d":  0.50,
	"nbf":    0.28,
}

// MiddleSlot returns the paper's "middle" leaver: process id 4 for
// 8-process teams, 3 for 6-process teams, and the midpoint otherwise.
func MiddleSlot(teamSize int) int {
	switch teamSize {
	case 8:
		return 4
	case 6:
		return 3
	default:
		return teamSize / 2
	}
}

// EndSlot returns the highest process id.
func EndSlot(teamSize int) int { return teamSize - 1 }

// Table2 reproduces Table 2: for each application and n in {8, 6},
// leaves and joins alternate (at most one per adaptation point) with
// the leaver at the end or middle process id. The non-adaptive
// baselines at n and n-1 are measured once per application and shared
// by both leavers.
func Table2(opt Options, ns []int) ([]Table2Cell, error) {
	opt = opt.withDefaults()
	if len(ns) == 0 {
		ns = []int{8, 6}
	}
	var sizes []int
	for _, n := range ns {
		sizes = append(sizes, n, n-1)
	}
	var cells []Table2Cell
	for _, app := range []string{"gauss", "jacobi", "fft3d", "nbf"} {
		base, err := opt.baselines(app, table2Scale(opt, app), sizes...)
		if err != nil {
			return nil, err
		}
		for _, leaver := range []string{"end", "middle"} {
			for _, n := range ns {
				cell, err := table2Cell(opt, app, n, leaver, base)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// table2Scale is the experiment scale raised to the application's floor.
func table2Scale(opt Options, app string) float64 {
	return max(opt.Scale, table2Scales[app])
}

// Table2Cell1 measures one Table 2 cell, baselines included.
func Table2Cell1(opt Options, app string, n int, leaver string) (Table2Cell, error) {
	opt = opt.withDefaults()
	base, err := opt.baselines(app, table2Scale(opt, app), n, n-1)
	if err != nil {
		return Table2Cell{}, err
	}
	return table2Cell(opt, app, n, leaver, base)
}

// table2Cell runs the adaptive half of one cell against baselines that
// cover n and n-1: alternating leaves and joins spread over the
// expected runtime.
func table2Cell(opt Options, app string, n int, leaver string, base map[int]simtime.Seconds) (Table2Cell, error) {
	slot := EndSlot
	if leaver == "middle" {
		slot = MiddleSlot
	}
	leaveAt := make([]simtime.Seconds, opt.Pairs)
	for i := range leaveAt {
		leaveAt[i] = base[n] * simtime.Seconds(float64(i)+0.6) / simtime.Seconds(float64(opt.Pairs)+0.6)
	}
	run, err := opt.adaptCost(app, table2Scale(opt, app), n, base, nil, newAlternator(leaveAt, slot).hook)
	if err != nil {
		return Table2Cell{}, err
	}
	events := appliedEvents(run.RT)
	if events == 0 {
		return Table2Cell{}, fmt.Errorf("bench: %s n=%d %s: no adapt events fired (runtime %.2fs too short; raise scale)", app, n, leaver, float64(run.Res.Time))
	}
	return Table2Cell{
		App: app, N: n, Leaver: leaver,
		AvgCost: run.Cost / simtime.Seconds(events), Adaptations: events, AvgNodes: run.AvgNodes,
		AdaTime: run.Res.Time, RefTime: run.Ref,
	}, nil
}

// FormatTable2 renders the cells like the paper's Table 2.
func FormatTable2(cells []Table2Cell) string {
	var b strings.Builder
	b.WriteString("Table 2: average cost of repeated adaptations between n and n-1 processes\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "app\tleaver\tn\tavg cost/adaptation\tadaptations\tavg nodes\tadaptive\tbaseline")
	for _, c := range cells {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.2fs\t%d\t%.2f\t%.2fs\t%.2fs\n",
			c.App, c.Leaver, c.N, float64(c.AvgCost), c.Adaptations, c.AvgNodes,
			float64(c.AdaTime), float64(c.RefTime))
	}
	w.Flush()
	return b.String()
}
