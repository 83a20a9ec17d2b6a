package bench

import (
	"fmt"

	"nowomp/internal/apps"
	"nowomp/internal/omp"
	"nowomp/internal/simnet"
)

// Fig3Row is one point of Figure 3: the fraction of the data space
// that moves when the process with the given id leaves an 8-process
// block-partitioned computation.
type Fig3Row struct {
	LeaverSlot int
	// MovedFrac is the measured re-distribution traffic after the
	// leave (steady-state sweep traffic subtracted) over the data
	// space.
	MovedFrac float64
	// TheoryFrac is the fraction predicted by the block-partition
	// geometry with shift-down reassignment: up to 50% for the end
	// process, up to 30% for process 3 (the paper's Figure 3).
	TheoryFrac float64
}

// Fig3Theory returns the predicted moved fraction for a leave of slot
// L from a t-process block partition with shift-down reassignment.
func Fig3Theory(slot, t int) float64 {
	if t < 2 || slot < 0 || slot >= t {
		return 0
	}
	moved := 0
	for p := 0; p < t-1; p++ {
		if p < slot {
			moved += p + 1 // gains from the successor's old block
		} else {
			moved += t - 1 - p // gains from the shifted blocks
		}
	}
	return float64(moved) / float64(t*(t-1))
}

// Fig3 reproduces Figure 3 on the Jacobi workload: an 8-process run,
// one leave per experiment, sweeping the leaving process id, measuring
// the re-distribution volume in the two sweeps after the adaptation.
func Fig3(opt Options, slots []int) ([]Fig3Row, error) {
	opt = opt.withDefaults()
	if len(slots) == 0 {
		slots = []int{1, 2, 3, 4, 5, 6, 7}
	}
	return runMatrix(opt, "fig3", slots, func(slot int) (Fig3Row, error) { return fig3Point(opt, slot) })
}

func fig3Point(opt Options, slot int) (Fig3Row, error) {
	const procs = 8
	if slot <= 0 || slot >= procs {
		return Fig3Row{}, fmt.Errorf("bench: fig3 slot %d outside [1,%d] (the master cannot leave)", slot, procs-1)
	}
	// Page-granularity movement only resolves the partition geometry
	// once each 1/56th-of-the-rows chunk spans several pages, so the
	// figure has its own scale floor.
	scale := max(opt.Scale, 0.3)
	cfg := apps.DefaultJacobi().Scaled(scale)
	const (
		warmupForks = 6 // init + sweeps to reach steady state
		leaveFork   = 8 // fork index at which the leave fires
		postSweeps  = 2 // measurement window after the adaptation
	)
	cfg.Iters = leaveFork + postSweeps + 2

	// The sweep count is the figure's own, so the cell starts the
	// runtime and drives Jacobi itself.
	_, rt, _, err := opt.adaptive("jacobi", scale, procs).Start(nil)
	if err != nil {
		return Fig3Row{}, err
	}
	var (
		snaps  = map[int64]simnet.Counters{}
		fabric = rt.Cluster().Fabric()
		leave  = forkLeaver(map[int64][]int{leaveFork: {slot}})
	)
	rt.SetForkHook(func(rt *omp.Runtime) {
		snaps[rt.Forks()] = fabric.Snapshot() // forks completed so far; this hook precedes the next
		leave(rt)
	})
	if _, err := apps.RunJacobi(rt, cfg); err != nil {
		return Fig3Row{}, err
	}

	steady := snaps[warmupForks].Sub(snaps[warmupForks-postSweeps]).TotalBytes()
	post := snaps[leaveFork+postSweeps].Sub(snaps[leaveFork]).TotalBytes()
	log := rt.AdaptLog()
	if len(log) != 1 {
		return Fig3Row{}, fmt.Errorf("bench: fig3 slot %d: %d adaptations, want 1", slot, len(log))
	}
	// Exclude the leave's own state transfer (leaver pages to the
	// master): Figure 3 shades the re-partitioning movement, which in
	// the implementation happens through page faults after the fork.
	moved := post - log[0].WindowBytes - steady
	if moved < 0 {
		moved = 0
	}
	data := float64(rt.Cluster().TotalSharedBytes())
	return Fig3Row{
		LeaverSlot: slot,
		MovedFrac:  float64(moved) / data,
		TheoryFrac: Fig3Theory(slot, procs),
	}, nil
}

// writeFig3 renders the sweep like the paper's Figure 3 caption.
func writeFig3(s *sheet, _ Options, rows []Fig3Row) {
	s.WriteString("Figure 3: data re-distribution vs leaving process id (8-process Jacobi)\n")
	tabulate(s, "leaver id\tmoved/data space\tpartition-geometry prediction", "%d\t%.1f%%\t%.1f%%", rows,
		func(r Fig3Row) []any { return []any{r.LeaverSlot, 100 * r.MovedFrac, 100 * r.TheoryFrac} }, nil)
}
