// Adaptive Jacobi: the paper's core scenario. An 8-process Jacobi
// relaxation runs on a NOW while workstations come and go — a leave
// and rejoin mid-run — and the program still produces exactly the
// sequential result. The per-adaptation costs printed at the end are
// the quantities Table 2 reports.
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
	rt, err := nowomp.New(nowomp.Config{Hosts: 8, Procs: 8, Adaptive: true})
	if err != nil {
		return err
	}

	cfg := nowomp.DefaultJacobi()
	cfg.N, cfg.Iters = 900, 120 // a scaled-down grid; 1.0 = 2500x2500

	// An operational schedule, as a daemon would generate: workstation
	// 5's owner needs it back a few virtual seconds in, and it becomes
	// available again later.
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Leave, Host: 5, At: 1.2}); err != nil {
		return err
	}
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Join, Host: 5, At: 2.2}); err != nil {
		return err
	}

	res, err := nowomp.RunJacobi(rt, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "jacobi %dx%d, %d iterations on a pool of 8 workstations\n", cfg.N, cfg.N, cfg.Iters)
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
	return nil
}
