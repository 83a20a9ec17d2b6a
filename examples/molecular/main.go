// Molecular dynamics under grace-period pressure: the Figure 2
// trichotomy on the NBF kernel. The same leave event is raised
// mid-phase twice — once with a generous grace period (the computation
// reaches the next adaptation point in time: a cheap normal leave) and
// once with a tight one (the grace expires mid-phase: an urgent leave
// by migration with multiplexing until the adaptation point). The
// result is identical either way; only the cost differs.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"nowomp"
)

func simulate(grace nowomp.Seconds) (*nowomp.Runtime, nowomp.AppResult, error) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 8, Procs: 8, Adaptive: true, Grace: grace})
	if err != nil {
		return nil, nowomp.AppResult{}, err
	}
	cfg := nowomp.DefaultNBF()
	cfg.Atoms, cfg.Partners, cfg.Iters = 81920, 24, 8

	// Workstation 6's owner returns mid-run. NBF's force phases are
	// the longest of the paper's applications (adaptation points ~2.5 s
	// apart at full scale), which is exactly when grace periods bite.
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Leave, Host: 6, At: 3.0}); err != nil {
		return nil, nowomp.AppResult{}, err
	}
	res, err := nowomp.RunNBF(rt, cfg)
	return rt, res, err
}

func describe(w io.Writer, label string, rt *nowomp.Runtime, res nowomp.AppResult) {
	fmt.Fprintf(w, "%s: runtime %.2fs, traffic %.2f MB\n", label, float64(res.Time), res.MB())
	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			if rec.Urgent {
				fmt.Fprintf(w, "  URGENT leave of host %d: image %.1f MB migrated in %.2fs, then %d pages handed off\n",
					rec.Event.Host, float64(rec.Plan.ImageBytes)/1e6,
					float64(rec.Plan.Cost), rec.Transfer.PagesMoved)
			} else {
				fmt.Fprintf(w, "  normal leave of host %d at t=%.2fs: %d pages handed off in %.3fs\n",
					rec.Event.Host, float64(ap.When), rec.Transfer.PagesMoved, float64(ap.Elapsed))
			}
		}
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rtN, resN, err := simulate(30.0) // generous grace: normal leave
	if err != nil {
		return err
	}
	rtU, resU, err := simulate(0.01) // tight grace: urgent leave
	if err != nil {
		return err
	}

	describe(w, "grace 30s ", rtN, resN)
	describe(w, "grace 0.01s", rtU, resU)

	if resN.Checksum != resU.Checksum {
		return fmt.Errorf("results differ: %g vs %g", resN.Checksum, resU.Checksum)
	}
	fmt.Fprintf(w, "\nboth runs produced identical results (checksum %.6g)\n", resN.Checksum)
	fmt.Fprintf(w, "urgent leave cost %.2fs more than the normal one — the premium the grace period avoids\n",
		float64(resU.Time-resN.Time))
	return nil
}
