// Command nowomp-bench regenerates the tables and figures of the
// paper's evaluation section: it walks bench.Experiments, and each
// experiment prints the same rows or series the paper reports. With
// -json the experiments that have natural scenario rows also write a
// machine-readable report of their simulated columns; the committed
// BENCH_pr10.json is one, at scale 1.0.
//
// Every scenario cell is a self-contained deterministic simulation, so
// every experiment fans its cells out across -parallel workers (default
// GOMAXPROCS; -parallel 1 runs them inline, for CPU profiles): the
// printed tables and the -json results are byte-identical at any pool
// size, only the wall clock changes.
//
// Examples:
//
//	nowomp-bench -exp table1 -scale 0.15
//	nowomp-bench -exp protocols -scale 0.1 -parallel 8
//	nowomp-bench -exp all -json bench.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nowomp/internal/bench"
	"nowomp/internal/scenario"
	"nowomp/internal/simtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experimentNames renders the -exp choices for the usage string and
// the unknown-experiment error.
func experimentNames() string {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, ", ") + ", all"
}

// run is the whole command: parse args, regenerate the chosen
// experiments onto stdout (progress and errors onto stderr) and return
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	// The heterogeneity/protocol surface is the shared scenario spec;
	// bench-only knobs (-exp, -pairs, -json, -parallel) stay local, and
	// the spec fields every experiment sets per cell (kernel, procs,
	// schedule) are not exposed. Procs 1 keeps Normalize's hosts >=
	// procs check out of the way of small -hosts pools; each cell's own
	// spec makes that check against its own team.
	fs := flag.NewFlagSet("nowomp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := scenario.Spec{
		Kernel: "jacobi", Procs: 1, Hosts: 10, Scale: 0.15,
		Grace: 3.0, Protocol: "tmk", Adaptive: true,
	}
	var (
		exp      = fs.String("exp", "all", "experiment: "+experimentNames())
		pairs    = fs.Int("pairs", 3, "leave/join pairs per Table 2 run")
		jsonPath = fs.String("json", "", "write a machine-readable BENCH_*.json report to this path")
		parallel = fs.Int("parallel", 0, "worker-pool size for independent scenario cells (0 = GOMAXPROCS, 1 = inline); results are byte-identical at any size")
		quiet    = fs.Bool("q", false, "suppress the per-cell progress/ETA ticks on stderr")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
		memProf  = fs.String("memprofile", "", "write a pprof allocation profile taken at exit to this path")
	)
	fs.Float64Var(&spec.Scale, "scale", spec.Scale, "problem scale (1.0 = the paper's sizes; some experiments enforce larger floors)")
	fs.IntVar(&spec.Hosts, "hosts", spec.Hosts, "workstation pool size")
	fs.Float64Var(&spec.Grace, "grace", spec.Grace, "leave grace period in seconds")
	fs.StringVar(&spec.Policy, "policy", spec.Policy, "load policy for the hetero custom scenario, e.g. \"high=1.5,low=0.25,dwell=2\"")
	spec.BindHetero(fs)
	spec.BindProtocol(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nowomp-bench:", err)
		return 1
	}
	// Validate the flags once, up front, so a malformed one fails before
	// any experiment runs — including the experiments it would not reach.
	if *pairs < 1 {
		return fail(fmt.Errorf("-pairs %d: want at least 1", *pairs))
	}
	if *parallel < 0 {
		return fail(fmt.Errorf("-parallel %d: want 0 (GOMAXPROCS) or more", *parallel))
	}
	norm, err := spec.Normalize()
	if err != nil {
		return fail(err)
	}
	opt := bench.Options{
		Scale: norm.Scale, Hosts: norm.Hosts, Pairs: *pairs, Grace: simtime.Seconds(norm.Grace),
		Machines: norm.Machines, Loads: norm.Loads, Links: norm.Links,
		Policy: norm.Policy, Protocol: norm.Protocol, Parallel: *parallel,
	}
	if !*quiet {
		// Progress ticks are stderr-only so the deterministic stdout
		// and -json contracts are unaffected.
		opt.Progress = stderr
	}
	stopProf, err := startProfiles(*cpuProf, *memProf, stdout, stderr)
	if err != nil {
		return fail(err)
	}
	defer stopProf()
	if err := regenerate(*exp, opt, *jsonPath, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// startProfiles wires the optional pprof outputs: the CPU profile spans
// the whole run, the allocation profile is an at-exit snapshot (taken
// after a final GC so live objects are accurate). The caller runs the
// returned stop function once, on its way out.
func startProfiles(cpuPath, memPath string, stdout, stderr io.Writer) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintf(stdout, "[cpu profile written to %s]\n", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(stderr, "nowomp-bench: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "nowomp-bench: -memprofile:", err)
			}
			f.Close()
			fmt.Fprintf(stdout, "[mem profile written to %s]\n", memPath)
		}
	}, nil
}

// regenerate runs the chosen experiment (or all of them, in table
// order), printing each table and its real-time cost, and writes the
// -json report when asked.
func regenerate(exp string, opt bench.Options, jsonPath string, stdout io.Writer) error {
	wallStart := time.Now()
	report := bench.NewReport(opt) // written only under -json
	ran := false
	for _, e := range bench.Experiments {
		if exp != "all" && exp != e.Name {
			continue
		}
		ran = true
		start := time.Now()
		out, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(stdout, out.Text)
		report.Results = append(report.Results, out.Records...)
		fmt.Fprintf(stdout, "[%s regenerated in %.1fs real time]\n\n", e.Name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
	}
	if jsonPath != "" {
		report.WallSeconds = time.Since(wallStart).Seconds()
		if err := report.Write(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "[json report written to %s]\n", jsonPath)
	}
	return nil
}
