// Command benchmark is nowomp's one yardstick: four named workloads,
// the end-to-end metrics a user of the simulator sees, and a per-layer
// table from a traced run. See README.md in this directory.
//
//	go run -C benchmark nowomp/benchmark -seed 1999            # all four workloads, tracing off
//	go run -C benchmark nowomp/benchmark -seed 1999 -trace out/trace.json
//	go run -C benchmark nowomp/benchmark -selfcheck
//	go run -C benchmark nowomp/benchmark -quick
//
// Each workload runs in a fresh child process of this program, so that
// no workload inherits another's heap. Run with -workload NAME, the
// program prints, as the last line of its standard output, the one
// JSON object BENCHMARK.json's driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// defaultSeconds is how long a batch workload keeps making passes
// (it always makes at least minPasses); BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1999, "workload seed: the same seed generates the same inputs")
		name      = fs.String("workload", "", "run one workload (default: all four) and end with the driver's JSON line")
		seconds   = fs.Float64("seconds", defaultSeconds, "keep making passes for this long (batch workloads; at least 3 passes)")
		trace     = fs.String("trace", "0", "0: tracing off, end-to-end metrics; 1 or FILE: traced run, per-layer table, Chrome trace written to FILE (1: out/trace-WORKLOAD.json)")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced command twice on the seed and fail if the two sets disagree beyond the bounds")
		quick     = fs.Bool("quick", false, "quarter scale, one pass: a smoke run, marked quick and never a baseline")
		jsonPath  = fs.String("json", "", "also write the full report (environment, every metric, \"claim\": null) to this file")
		child     = fs.Bool("child", false, "internal: run the workload in this process and print its report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	env := readEnvironment(*seed, *quick)
	names, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	if *child {
		rep := runWorkload(runOptions{
			Workload: names[0], Seed: *seed, Seconds: *seconds, Quick: *quick,
			TracePath: tracePath(*trace, names[0], true),
		}, env)
		data, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	printEnvironment(stdout, env)
	runSet := func() (map[string]childReport, bool) {
		set := map[string]childReport{}
		ok := true
		for _, w := range names {
			rep, err := runChild(w, *seed, *seconds, *quick, tracePath(*trace, w, len(names) == 1), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w, err)
				return set, false
			}
			set[w] = rep
			printReport(stdout, rep)
			ok = ok && exitCode(true, rep) == 0
		}
		return set, ok
	}

	sets := []map[string]childReport{}
	set, ok := runSet()
	sets = append(sets, set)
	if *selfcheck && ok {
		fmt.Fprintln(stdout, "\nselfcheck: second set")
		set, ok = runSet()
		sets = append(sets, set)
		ok = ok && printSelfcheck(stdout, names, sets[0], sets[1])
	}
	if *jsonPath != "" {
		if err := writeJSONReport(*jsonPath, env, sets); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if rep, ran := set[*name]; ran {
		printDriverLine(stdout, rep)
	}
	return exitCode(ok && len(set) == len(names))
}

// exitCode is 0 only when every workload ran to the end, none of its
// attempts failed, and -selfcheck (when asked for) passed.
func exitCode(ok bool, reports ...childReport) int {
	for _, rep := range reports {
		if rep.Failed > 0 || rep.Error != "" {
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func selectWorkloads(name string) ([]string, error) {
	if name == "" {
		var all []string
		for _, w := range workloads {
			all = append(all, w.Name)
		}
		return all, nil
	}
	if _, ok := workloadByName(name); !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []string{name}, nil
}

// tracePath maps the -trace value to the file a workload's trace goes
// to: "" when tracing is off. A FILE shared by several workloads gets
// the workload's name before its extension.
func tracePath(flagValue, workload string, only bool) string {
	switch flagValue {
	case "", "0":
		return ""
	case "1":
		return filepath.Join("out", "trace-"+workload+".json")
	}
	if only {
		return flagValue
	}
	ext := filepath.Ext(flagValue)
	return strings.TrimSuffix(flagValue, ext) + "." + workload + ext
}

// runChild runs one workload in a fresh process of this program and
// waits for it to end.
func runChild(workload string, seed int64, seconds float64, quick bool, trace string, stderr io.Writer) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	args := []string{
		"-child", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		fmt.Sprintf("-quick=%v", quick),
	}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return childReport{}, fmt.Errorf("child process: %w", err)
	}
	var rep childReport
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return childReport{}, fmt.Errorf("child report: %w", err)
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("%s", rep.Error)
	}
	return rep, nil
}

func printEnvironment(w io.Writer, env environment) {
	fmt.Fprintf(w, "nowomp benchmark: seed %d, commit %s, %s, %d CPUs (GOMAXPROCS %d), %s, load %s\n",
		env.Seed, env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS, env.CPUModel, env.LoadAvg)
	scales, _ := json.Marshal(env.BaseScales)
	fmt.Fprintf(w, "base scales: %s\n", scales)
	if env.Quick {
		fmt.Fprintln(w, "QUICK RUN (\"quick\": true): quarter scale, one pass. A smoke test, never a baseline.")
	}
}

func boundText(m metric) string {
	if m.Bound == 0 {
		return "exact"
	}
	return fmt.Sprintf("%.0f%%", m.Bound*100)
}

// printReport prints one workload's metrics by name, with units,
// sample counts and bounds.
func printReport(w io.Writer, rep childReport) {
	wl, _ := workloadByName(rep.Workload)
	fmt.Fprintf(w, "\n== %s ==\n%s\n", rep.Workload, wl.Why)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if !rep.Traced {
		fmt.Fprintln(tw, "end-to-end (tracing off)\tvalue\tunit\tn\tmin\tmax\tbound\tkind")
		for _, m := range append(append([]metric{}, endToEnd...), exactEndToEnd...) {
			n, lo, hi := "", "", ""
			if s, ok := rep.Samples[m.Name]; ok {
				n, lo, hi = fmt.Sprint(s.N), fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Max)
			} else if strings.HasPrefix(m.Name, "fresh_") {
				n = fmt.Sprint(rep.Samples["fresh_ms"].N)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\t%s\t%s\t%s\n",
				m.Name, rep.Metrics[m.Name], m.Unit, n, lo, hi, boundText(m), m.Kind)
		}
		tw.Flush()
		if s, ok := rep.Samples["fresh_ms"]; ok {
			fmt.Fprintf(w, "  fresh latency: n=%d; the highest percentile with at least 10 samples beyond it is p%g = %.4g ms\n",
				s.N, s.HighPct*100, s.High)
		}
		for _, op := range rep.Ops {
			fmt.Fprintf(w, "  operation %s: %.4g ms (median of %d passes)\n", op.Name, op.MedianMS, len(rep.Passes))
		}
	} else {
		fmt.Fprintln(tw, "per-layer (traced run)\tvalue\tunit\tsource\tkind")
		for _, m := range perLayer {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", m.Name, rep.Metrics[m.Name], m.Unit, m.Source, m.Kind)
		}
		tw.Flush()
		fmt.Fprintf(w, "  page-sized probes cycle a %.0f MiB working set; the last-level cache reports %.0f MiB\n",
			rep.Metrics["probe.working_set_mb"], rep.Metrics["probe.llc_mb"])
		fmt.Fprintf(w, "  Chrome trace: %s\n", rep.TracePath)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAILED %s: %s\n", f.Op, f.Reason)
	}
	if rep.Unstable {
		fmt.Fprintf(w, "  unstable: the passes spread by more than %.0f%% of their median\n", unstableSpread*100)
	}
}

// printDriverLine prints the JSON object BENCHMARK.json's driver
// reads: every end-to-end metric of an untraced run, every per-layer
// metric of a traced one.
func printDriverLine(w io.Writer, rep childReport) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := endToEnd
	if rep.Traced {
		list = perLayer
	}
	metrics := map[string]value{}
	for _, m := range list {
		metrics[m.Name] = value{Value: rep.Metrics[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(data))
}

// printSelfcheck compares two sets of runs of the same code on the
// same seed. It fails, naming the metric, when two medians differ by
// more than the metric's bound or when an exact metric differs at all.
// A batch workload whose passes were unstable is flagged, not failed:
// the box was noisy, and the medians may still agree.
func printSelfcheck(w io.Writer, names []string, a, b map[string]childReport) bool {
	ok := true
	fmt.Fprintln(w, "\nselfcheck: two sets of runs, same code, same seed")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiffer by\tbound\tverdict")
	for _, name := range names {
		ra, rb := a[name], b[name]
		check := func(m metric) {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			diff := 0.0
			if va != vb {
				diff = math.Abs(va-vb) / math.Max(math.Abs(va), math.Abs(vb))
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n", name, m.Name, va, vb, diff*100, boundText(m), verdict)
		}
		for _, m := range append(append([]metric{}, endToEnd...), exactEndToEnd...) {
			check(m)
		}
		exactDiffers := 0
		for _, m := range perLayer {
			if m.Kind == "simulated" && ra.Metrics[m.Name] != rb.Metrics[m.Name] {
				check(m)
				exactDiffers++
			}
		}
		if exactDiffers == 0 {
			fmt.Fprintf(tw, "%s\tevery exact count\t\t\t0.00%%\texact\tok\n", name)
		}
		if ra.Unstable || rb.Unstable {
			fmt.Fprintf(tw, "%s\tpasses\t\t\t\t%.0f%%\tunstable\n", name, unstableSpread*100)
		}
	}
	tw.Flush()
	if ok {
		fmt.Fprintln(w, "selfcheck passed")
	} else {
		fmt.Fprintln(w, "selfcheck FAILED")
	}
	return ok
}

// writeJSONReport writes every set of runs with the environment. The
// benchmark measures; it claims nothing.
func writeJSONReport(path string, env environment, sets []map[string]childReport) error {
	data, err := json.MarshalIndent(map[string]any{
		"environment": env,
		"quick":       env.Quick,
		"claim":       nil,
		"sets":        sets,
	}, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
