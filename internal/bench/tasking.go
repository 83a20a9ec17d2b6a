package bench

import (
	"fmt"

	"nowomp/internal/omp"
	"nowomp/internal/shmem"
	"nowomp/internal/simtime"
)

// The tasking experiment prices the claim of the related tasking work
// (and section 7's outlook): on a DSM, the scheduler itself costs
// traffic, and which scheduler wins depends on the workload's shape.
// A synthetic loop of N items runs under Static, Dynamic and Guided
// loop schedules and as a recursive task tree at matched granularity:
//
//   - uniform: every item costs one unit. A coarse-chunk Dynamic
//     schedule claims a handful of chunks cheaply; tasking pays steal
//     round-trips and release/acquire consistency that buy nothing.
//   - skewed: a hash-scattered 2% of items cost 100 units. Balancing
//     now needs fine granularity, which under Dynamic means thousands
//     of lock-protected counter claims — each a priced lock handoff
//     and counter-page diff fetch — while the task tree still ships
//     only tens of subtree closures.
//
// So tasking loses the uniform workload — the steal round-trips and
// release/acquire flushes buy nothing a coarse static chunk would not —
// and wins the skewed one by an order of magnitude. One nuance the
// curves record: the uniform gap closes as the team grows, because
// Dynamic's claims serialise through one lock (cost grows with the
// claim count) while steals from distinct victims overlap in virtual
// time. The committed curves in docs/tasking-bench.md record both
// regimes.

// TaskingRow is one measured point of the comparison.
type TaskingRow struct {
	Workload string
	Procs    int
	// Construct times (virtual), init excluded.
	Static, Dynamic, Guided, Tasks simtime.Seconds
	// Work-phase traffic of the Dynamic and Tasks variants;
	// TasksBytes/TasksMessages are the exact fabric counts behind
	// TasksMB (the -json report records them).
	DynamicMB, TasksMB float64
	TasksBytes         int64
	TasksMessages      int64
	// Steals performed by the task variant.
	Steals int64
}

// taskingUnit is the per-unit compute charge of the synthetic item.
var taskingUnit = simtime.Micros(40)

// taskingHeavy deterministically marks ~2% of items as 100x items,
// scattered by a splitmix-style hash so no contiguous chunk is safe.
func taskingHeavy(i int) bool {
	h := uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h%50 == 0
}

func taskingWeight(i int, skewed bool) int {
	if skewed && taskingHeavy(i) {
		return 100
	}
	return 1
}

// loopItems is the item count of the tasking and hetero loops at the
// configured scale. The floor keeps one-chunk-per-process partitions
// page-aligned (512 float64 per page) up to 8 processes.
func loopItems(scale float64) int {
	n := 1 << 12
	for float64(n) < 1<<14*scale {
		n *= 2
	}
	return n
}

// Tasking runs the comparison for both workloads across team sizes.
// Points are independent runs and fan out across Options.Parallel
// workers.
func Tasking(opt Options) ([]TaskingRow, error) {
	opt = opt.withDefaults()
	n := loopItems(opt.Scale)
	type cell struct {
		workload string
		procs    int
	}
	var cells []cell
	for _, workload := range []string{"uniform", "skewed"} {
		for _, procs := range []int{2, 4, 8} {
			if procs > opt.Hosts {
				continue
			}
			cells = append(cells, cell{workload, procs})
		}
	}
	return runMatrix(opt, "tasking", cells, func(c cell) (TaskingRow, error) { return taskingPoint(opt, c.workload, n, c.procs) })
}

// taskingPoint measures all four variants at one (workload, procs).
func taskingPoint(opt Options, workload string, n, procs int) (TaskingRow, error) {
	skewed := workload == "skewed"
	row := TaskingRow{Workload: workload, Procs: procs}

	// Granularities. The Dynamic chunk is programmer-tuned per
	// workload: uniform work wants one coarse chunk per process (each
	// claims once, writes its own pages, and the lock protocol has
	// nothing to thrash); skewed work needs fine granularity so no
	// chunk strands several 100x items behind one process — and
	// fine-grained claiming is where the DSM prices the counter lock
	// handoff and the page invalidations of every release interval.
	// The task tree is deliberately workload-oblivious: it always
	// splits down to the fine leaf, which is its virtue on skew (the
	// imbalance is absorbed by tens of steals, not thousands of
	// claims) and its waste on uniform work (the steal and
	// release/acquire traffic buys nothing a static chunk would not).
	fine := 16

	chunk := max(fine, n/procs)
	if skewed {
		chunk = fine
	}
	leaf := 8

	item := func(p *omp.Proc, out *shmem.Array[float64], lo, hi int) {
		buf := make([]float64, hi-lo)
		units := 0
		for i := lo; i < hi; i++ {
			w := taskingWeight(i, skewed)
			buf[i-lo] = float64(w)
			units += w
		}
		out.WriteRange(p.Mem(), lo, buf)
		p.ChargeUnits(units, taskingUnit)
	}
	// Each variant is the cell's own body on a fresh runtime; the work
	// must have happened exactly once per item.
	measure := func(work func(rt *omp.Runtime, out *shmem.Array[float64])) (measured, error) {
		m, _, err := arrayCell(fmt.Sprintf("tasking %s/%d", workload, procs), opt.cell("", opt.Scale, procs),
			nil, n, true, work, func(i int) float64 { return float64(taskingWeight(i, skewed)) })
		return m, err
	}
	loop := func(opts ...omp.ForOption) func(rt *omp.Runtime, out *shmem.Array[float64]) {
		return func(rt *omp.Runtime, out *shmem.Array[float64]) {
			rt.For("tasking.work", 0, n, func(p *omp.Proc, lo, hi int) {
				item(p, out, lo, hi)
			}, opts...)
		}
	}
	tasks := func(rt *omp.Runtime, out *shmem.Array[float64]) {
		var rec func(tp *omp.TaskProc, lo, hi int)
		rec = func(tp *omp.TaskProc, lo, hi int) {
			if hi-lo <= leaf {
				item(tp.Proc, out, lo, hi)
				return
			}
			mid := lo + (hi-lo)/2
			tp.Spawn(func(c *omp.TaskProc) { rec(c, lo, mid) })
			tp.Spawn(func(c *omp.TaskProc) { rec(c, mid, hi) })
			tp.TaskWait()
		}
		row.Steals = rt.Tasks("tasking.work", func(tp *omp.TaskProc) { rec(tp, 0, n) }).Steals
	}

	static, err := measure(loop())
	if err != nil {
		return row, err
	}
	dynamic, err := measure(loop(omp.WithSchedule(omp.Dynamic, chunk)))
	if err != nil {
		return row, err
	}
	guided, err := measure(loop(omp.WithSchedule(omp.Guided, fine)))
	if err != nil {
		return row, err
	}
	tasked, err := measure(tasks)
	if err != nil {
		return row, err
	}
	row.Static, row.Dynamic, row.Guided, row.Tasks = static.Time, dynamic.Time, guided.Time, tasked.Time
	row.DynamicMB = float64(dynamic.Bytes) / 1e6
	row.TasksBytes, row.TasksMessages = tasked.Bytes, tasked.Messages
	row.TasksMB = float64(tasked.Bytes) / 1e6
	return row, nil
}

// writeTasking renders the comparison and records the task variant's
// time and traffic per workload and team size.
func writeTasking(s *sheet, _ Options, rows []TaskingRow) {
	s.WriteString("Tasking vs loop schedules on uniform and skewed work\n")
	s.WriteString("(virtual construct time; traffic of the two claim-based variants)\n")
	tabulate(s, "workload\tprocs\tstatic\tdynamic\tguided\ttasks\tdyn MB\ttask MB\tsteals\ttasks vs dynamic",
		"%s\t%d\t%.3fs\t%.3fs\t%.3fs\t%.3fs\t%.3f\t%.3f\t%d\t%s", rows, func(r TaskingRow) []any {
			verdict := "loses"
			if r.Tasks < r.Dynamic {
				verdict = "wins"
			}
			return []any{r.Workload, r.Procs, float64(r.Static), float64(r.Dynamic),
				float64(r.Guided), float64(r.Tasks), r.DynamicMB, r.TasksMB, r.Steals, verdict}
		}, func(r TaskingRow) Record {
			return Record{Scenario: fmt.Sprintf("tasking/%s/%dp", r.Workload, r.Procs),
				Seconds: float64(r.Tasks), Bytes: r.TasksBytes, Messages: r.TasksMessages}
		})
}
