// Command nowomp-fuzz is the deterministic batch face of the scenario
// fuzzer: generate -count random valid scenarios from -seed, run each
// under the differential oracle battery (determinism across
// GOMAXPROCS, sequential-reference checksum, cross-protocol output
// equivalence, adaptive transparency, no panics), shrink every failure
// to a minimal reproducing spec, and exit non-zero if anything failed.
// Stdout is byte-deterministic for a given (seed, count): CI diffs two
// runs as a determinism gate and commits minimal specs as testdata
// regressions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nowomp/internal/scenfuzz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind its exit status: 0 when every scenario
// passed every oracle, 2 for a malformed command line, 1 when a scenario
// failed or the report could not be written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowomp-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1999, "generator seed (same seed, same specs, same verdicts)")
	count := fs.Int("count", 25, "number of scenarios to generate and check")
	budget := fs.Int("shrink-budget", 0, "oracle batteries per shrink (0 = default, negative = no shrinking)")
	jsonOut := fs.String("json", "", "write the full report as JSON to this file")
	quiet := fs.Bool("q", false, "suppress per-scenario progress lines")
	fullScale := fs.Bool("fullscale", false, "mix near-1.0 scale points into the generator grid (slow: full-scale oracle batteries)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *count < 1 {
		fmt.Fprintf(stderr, "nowomp-fuzz: -count %d: want at least 1\n", *count)
		return 1
	}

	progress := stdout
	if *quiet {
		progress = nil
	}
	rep := scenfuzz.Batch(scenfuzz.BatchOptions{
		Seed: *seed, Count: *count, ShrinkBudget: *budget, Progress: progress,
		FullScale: *fullScale,
	})

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "nowomp-fuzz:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "seed %d: %d/%d scenarios passed, %d failed\n",
		rep.Seed, rep.Passed, rep.Count, len(rep.Failures))
	for _, f := range rep.Failures {
		min, _ := json.Marshal(f.Minimal)
		fmt.Fprintf(stdout, "FAIL spec %d oracle=%s hash=%s\n  detail: %s\n  minimal (%s): %s\n",
			f.Index, f.Oracle, f.Hash, f.Detail, f.MinimalHash, min)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}
