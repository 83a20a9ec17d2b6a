// Command nowomp-run executes one of the paper's application kernels
// on the simulated NOW, optionally with an adapt-event schedule (the
// stand-in for the paper's event daemons) or a heterogeneous machine
// model with a load policy deriving the events, and reports the Table
// 1-style measurements plus a log of every adaptation. The flag
// surface is the shared scenario spec (internal/scenario) — the same
// canonical form the farm service hashes.
//
// Examples:
//
//	nowomp-run -app jacobi -procs 8 -scale 0.2
//	nowomp-run -app nbf -procs 8 -hosts 10 -scale 0.3 \
//	    -schedule "6:leave:7,9:join:7,14:leave:4:grace=0.5"
//	nowomp-run -app jacobi -procs 4 -machines "2=0.5,3=0.5"
//	nowomp-run -app jacobi -procs 4 -load "3=4@5,0@12" \
//	    -policy "high=1.5,low=0.25,dwell=1"
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"text/tabwriter"

	"nowomp/internal/adapt"
	"nowomp/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse args, execute the scenario, print
// the report onto stdout (errors onto stderr) and return the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowomp-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := scenario.Spec{
		Kernel: "jacobi", Procs: 8, Hosts: 10, Scale: 0.2,
		Grace: 3.0, Protocol: "tmk",
	}
	spec.BindAll(fs)
	fs.BoolVar(&spec.Adaptive, "adaptive", true, "use the adaptive runtime variant")
	fs.BoolVar(&spec.Verify, "verify", true, "check the result against the sequential reference")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nowomp-run:", err)
		return 1
	}
	if err := scenario.CheckPositive(fs); err != nil {
		return fail(err)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fmt.Errorf("-cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if err := report(spec, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// report executes the scenario and prints its measurements, the
// adaptation log and the verification verdict.
func report(spec scenario.Spec, stdout io.Writer) error {
	norm, res, rt, derived, err := spec.Execute(nil, nil)
	if err != nil {
		return err
	}
	if norm.Policy != "" {
		fmt.Fprintf(stdout, "policy %s derived %d events: %s\n\n",
			norm.Policy, len(derived), adapt.FormatSchedule(derived))
	}

	w := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "app\t%s (scale %g)\n", res.App, norm.Scale)
	fmt.Fprintf(w, "protocol\t%s\n", rt.Cluster().Protocol())
	fmt.Fprintf(w, "team\t%d initial, %d final\n", res.Procs, rt.NProcs())
	fmt.Fprintf(w, "shared memory\t%.1f MB\n", float64(res.SharedBytes)/1e6)
	fmt.Fprintf(w, "virtual runtime\t%.2f s\n", float64(res.Time))
	fmt.Fprintf(w, "pages (4k)\t%d\n", res.Pages)
	fmt.Fprintf(w, "traffic\t%.2f MB in %d messages\n", res.MB(), res.Messages)
	fmt.Fprintf(w, "diffs\t%d\n", res.Diffs)
	w.Flush()

	if mgr := rt.Manager(); mgr != nil && mgr.PendingCount() > 0 {
		fmt.Fprintf(stdout, "\nnote: %d scheduled events never matured (run ended at t=%.2fs; schedule times are virtual seconds)\n",
			mgr.PendingCount(), float64(rt.Now()))
	}
	if log := rt.AdaptLog(); len(log) > 0 {
		fmt.Fprintln(stdout, "\nadaptations:")
		w = tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "  at\tevent\thost\turgent\tcost\tpages moved\tmax-link bytes\tteam after")
		for _, ap := range log {
			for _, rec := range ap.Applied {
				fmt.Fprintf(w, "  %.2fs\t%v\t%d\t%v\t%.3fs\t%d\t%d\t%v\n",
					float64(ap.When), rec.Event.Kind, rec.Event.Host, rec.Urgent,
					float64(ap.Elapsed), rec.Transfer.PagesMoved, ap.WindowMaxLink, ap.TeamAfter)
			}
		}
		w.Flush()
	}
	if norm.Verify { // Execute fails the run on a mismatch
		fmt.Fprintln(stdout, "\nverified: result matches the sequential reference bit for bit")
	}
	return nil
}
