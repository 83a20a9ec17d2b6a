// Tasking: OpenMP 3.0-style tasks on the adaptive NOW. A parallel
// mergesort — recursive divide-and-conquer that loop schedules cannot
// express — runs as one task region: leaves sort locally, interior
// tasks spawn their halves and taskwait before merging, and idle
// workstations steal subtrees (priced steal traffic, not free).
// Mid-sort, one workstation leaves and another joins; the task
// scheduling points double as adaptation points, the departing
// process's deque re-homes onto the survivors, and the sorted result
// is still bit-identical to the sequential reference.
//
// The same region is also written by hand below with Spawn/TaskWait to
// show the API; RunMergesort packages it as a kernel.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"nowomp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rt, err := nowomp.New(nowomp.Config{Hosts: 8, Procs: 4, Adaptive: true})
	if err != nil {
		return err
	}

	// An operational schedule: workstation 2 is reclaimed by its owner
	// early on (generous grace), workstation 6 becomes available.
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Leave, Host: 2, At: 0.4, Grace: 60}); err != nil {
		return err
	}
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Join, Host: 6, At: 0.1}); err != nil {
		return err
	}

	cfg := nowomp.DefaultSort().Scaled(0.25)
	// Stretch the per-element costs so the region spans the schedule
	// above (the default calibration sorts this size in well under a
	// second of virtual time).
	cfg.CompareCost *= 20
	cfg.MergeCost *= 20

	res, err := nowomp.RunMergesort(rt, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "mergesort of %d keys on a pool of 8 workstations\n", cfg.N)
	fmt.Fprintf(w, "virtual runtime %.2f s, %.1f MB shared, %.2f MB network traffic, %d diffs\n",
		float64(res.Time), float64(res.SharedBytes)/1e6, res.MB(), res.Diffs)

	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			fmt.Fprintf(w, "  t=%5.2fs  %-5v host %d  cost %.3fs  %4d pages moved  team -> %v\n",
				float64(ap.When), rec.Event.Kind, rec.Event.Host,
				float64(ap.Elapsed), rec.Transfer.PagesMoved, ap.TeamAfter)
		}
	}
	fmt.Fprintf(w, "final team: %d processes\n", rt.NProcs())

	if want := nowomp.MergesortReference(cfg); res.Checksum != want {
		return fmt.Errorf("verification FAILED: checksum %g, reference %g", res.Checksum, want)
	}
	fmt.Fprintln(w, "verified: sorted result matches the sequential reference bit for bit")

	// The same construct written by hand: a task region that sums the
	// first n squares by recursive splitting. Spawned halves write
	// into closure variables; TaskWait orders the reads after the
	// children, so l and r combine deterministically.
	rt2, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		return err
	}
	const n = 1 << 16
	var total float64
	var rec func(tp *nowomp.TaskProc, lo, hi int) float64
	rec = func(tp *nowomp.TaskProc, lo, hi int) float64 {
		if hi-lo <= 1<<12 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i) * float64(i)
			}
			tp.ChargeUnits(hi-lo, 2e-6)
			return s
		}
		mid := lo + (hi-lo)/2
		var l, r float64
		tp.Spawn(func(c *nowomp.TaskProc) { l = rec(c, lo, mid) })
		tp.Spawn(func(c *nowomp.TaskProc) { r = rec(c, mid, hi) })
		tp.TaskWait()
		return l + r
	}
	stats := rt2.Tasks("squares", func(tp *nowomp.TaskProc) { total = rec(tp, 0, n) })
	fmt.Fprintf(w, "\nsum of squares below %d = %.0f (%d tasks, %d steals, %d migrated executions)\n",
		n, total, stats.Executed, stats.Steals, stats.MigratedExec)
	return nil
}
