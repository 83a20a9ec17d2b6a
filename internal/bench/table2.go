package bench

import (
	"fmt"

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
	if len(ns) == 0 {
		ns = []int{8, 6}
	}
	return table2(opt.withDefaults(), []string{"gauss", "jacobi", "fft3d", "nbf"}, ns, []string{"end", "middle"})
}

// Table2Cell1 measures one Table 2 cell, baselines included.
func Table2Cell1(opt Options, app string, n int, leaver string) (Table2Cell, error) {
	cells, err := table2(opt.withDefaults(), []string{app}, []int{n}, []string{leaver})
	if err != nil {
		return Table2Cell{}, err
	}
	return cells[0], nil
}

// table2 measures the cells of every app, leaver and n, in that order:
// the baselines at every n and n-1 first, then the adaptive runs, whose
// alternating leaves and joins spread over the expected runtime.
func table2(opt Options, apps []string, ns []int, leavers []string) ([]Table2Cell, error) {
	var sizes []int
	for _, n := range ns {
		sizes = append(sizes, n, n-1)
	}
	var keys []baseKey
	for _, app := range apps {
		for _, n := range sizes {
			keys = append(keys, baseKey{app, table2Scale(opt, app), n})
		}
	}
	base, err := opt.baselines("table2 baselines", keys)
	if err != nil {
		return nil, err
	}
	var cells []Table2Cell
	var runs []adaptCell
	for _, app := range apps {
		scale := table2Scale(opt, app)
		appBase := base.sizes(app, scale, sizes...)
		for _, leaver := range leavers {
			slot := EndSlot
			if leaver == "middle" {
				slot = MiddleSlot
			}
			for _, n := range ns {
				leaveAt := make([]simtime.Seconds, opt.Pairs)
				for i := range leaveAt {
					leaveAt[i] = appBase[n] * simtime.Seconds(float64(i)+0.6) / simtime.Seconds(float64(opt.Pairs)+0.6)
				}
				cells = append(cells, Table2Cell{App: app, N: n, Leaver: leaver})
				runs = append(runs, adaptCell{app: app, scale: scale, procs: n, base: appBase,
					hook: newAlternator(leaveAt, slot).hook})
			}
		}
	}
	done, err := runMatrix(opt, "table2", runs, opt.adaptCost)
	if err != nil {
		return nil, err
	}
	for i, run := range done {
		c := &cells[i]
		events := appliedEvents(run.Log)
		if events == 0 {
			return nil, fmt.Errorf("bench: %s n=%d %s: no adapt events fired (runtime %.2fs too short; raise scale)", c.App, c.N, c.Leaver, float64(run.Time))
		}
		c.AvgCost, c.Adaptations, c.AvgNodes = run.Cost/simtime.Seconds(events), events, run.AvgNodes
		c.AdaTime, c.RefTime = run.Time, run.Ref
	}
	return cells, nil
}

// table2Scale is the experiment scale raised to the application's floor.
func table2Scale(opt Options, app string) float64 {
	return max(opt.Scale, table2Scales[app])
}

// writeTable2 renders the cells like the paper's Table 2.
func writeTable2(s *sheet, _ Options, cells []Table2Cell) {
	s.WriteString("Table 2: average cost of repeated adaptations between n and n-1 processes\n")
	tabulate(s, "app\tleaver\tn\tavg cost/adaptation\tadaptations\tavg nodes\tadaptive\tbaseline",
		"%s\t%s\t%d\t%.2fs\t%d\t%.2f\t%.2fs\t%.2fs", cells, func(c Table2Cell) []any {
			return []any{c.App, c.Leaver, c.N, float64(c.AvgCost), c.Adaptations, c.AvgNodes,
				float64(c.AdaTime), float64(c.RefTime)}
		}, nil)
}
