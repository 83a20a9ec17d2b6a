// Command nowomp-farm is the multi-tenant simulation service: a
// long-running HTTP/JSON server that accepts scenario jobs, runs them
// on concurrent engine instances under admission control (per-tenant
// FIFO queues, bounded global worker pool), and serves every result
// from a content-addressed cache keyed by the canonical scenario hash
// — determinism makes identical requests return identical bytes, so a
// cached result is valid forever.
//
// Endpoints: POST /v1/jobs (scenario spec body, X-Tenant header,
// ?wait=true to block), GET /v1/jobs/{id}, GET /v1/results/{hash},
// GET /v1/stats.
//
// Examples:
//
//	nowomp-farm -addr :8080 -workers 8
//	nowomp-farm -drive -jobs 128 -trace poisson -json BENCH_farm.json
//	nowomp-farm -selftest
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"nowomp/internal/bench"
	"nowomp/internal/farm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind its exit status: 0 for a driver run whose
// every response matched its sequential re-run, 2 for a malformed
// command line, 1 with a one-line message for anything else that failed.
// Serve mode returns only on a listen error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowomp-farm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address for serve mode")
		workers  = fs.Int("workers", 0, "global worker-pool size (0 = GOMAXPROCS)")
		queueCap = fs.Int("queue", 32, "per-tenant pending-queue capacity")
		inflight = fs.Int("inflight", 2, "per-tenant max concurrently running jobs")

		drive    = fs.Bool("drive", false, "run the synthetic load driver against an in-process server instead of serving")
		selftest = fs.Bool("selftest", false, "run the driver with small defaults and fail unless every response is byte-identical to a sequential re-run")
		jobs     = fs.Int("jobs", 96, "driver: jobs to generate")
		seed     = fs.Int64("seed", 1999, "driver: arrival/mix generator seed")
		scale    = fs.Float64("scale", 0.04, "driver: problem scale of the catalogue scenarios")
		tenants  = fs.Int("tenants", 4, "driver: synthetic tenant count")
		trace    = fs.String("trace", "mix", "driver: arrival process (poisson, diurnal or mix)")
		horizon  = fs.Duration("horizon", 3*time.Second, "driver: wall-clock window the arrivals spread over")
		jsonPath = fs.String("json", "", "driver: write the schema-3 BENCH_*.json report here")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	limits := farm.Limits{Workers: *workers, QueueCap: *queueCap, MaxInflight: *inflight}
	opt := farm.DriveOptions{
		Jobs: *jobs, Seed: *seed, Scale: *scale, Tenants: *tenants,
		Trace: *trace, Horizon: *horizon, Limits: limits,
	}
	var err error
	switch {
	case *selftest:
		opt.Jobs, opt.Scale, opt.Horizon = 64, 0.03, 2*time.Second
		err = runDrive(limits, opt, *jsonPath, stdout)
	case *drive:
		err = runDrive(limits, opt, *jsonPath, stdout)
	default:
		err = serve(*addr, limits, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "nowomp-farm:", err)
		return 1
	}
	return 0
}

// serve runs the server until the process is killed.
func serve(addr string, limits farm.Limits, stdout io.Writer) error {
	srv := farm.NewServer(limits)
	defer srv.Close()
	fmt.Fprintf(stdout, "nowomp-farm serving on %s (%d workers, queue %d, inflight %d per tenant)\n",
		addr, limits.Workers, limits.QueueCap, limits.MaxInflight)
	return http.ListenAndServe(addr, srv.Handler())
}

// runDrive starts an in-process server on a loopback port, fires the
// load driver at it, prints the summary, and writes the report.
func runDrive(limits farm.Limits, opt farm.DriveOptions, jsonPath string, stdout io.Writer) error {
	srv := farm.NewServer(limits)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	opt.BaseURL = "http://" + ln.Addr().String()
	opt.Progress = stdout
	report, err := farm.Drive(opt)
	if err != nil {
		return err
	}
	printSummary(stdout, report)
	if jsonPath != "" {
		if err := report.Write(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "[json report written to %s]\n", jsonPath)
	}
	if !report.Farm.ByteIdentical {
		return fmt.Errorf("served responses were NOT byte-identical to sequential re-runs")
	}
	return nil
}

func printSummary(w io.Writer, r *bench.Report) {
	f := r.Farm
	fmt.Fprintf(w, "\nfarm load report (trace %s, seed %d)\n", f.Trace, f.Seed)
	fmt.Fprintf(w, "  jobs          %d (%d unique scenarios)\n", f.Jobs, len(r.Results))
	fmt.Fprintf(w, "  throughput    %.1f jobs/s over %.2fs wall\n", f.ThroughputJobsPerSec, r.WallSeconds)
	fmt.Fprintf(w, "  latency       p50 %.0fms  p95 %.0fms  p99 %.0fms (total, wall clock)\n",
		f.P50Seconds*1e3, f.P95Seconds*1e3, f.P99Seconds*1e3)
	fmt.Fprintf(w, "  cache         hit ratio %.2f, %d retries after 429\n", f.CacheHitRatio, f.Retries429)
	fmt.Fprintf(w, "  byte-identity %v (every response vs a sequential re-run)\n", f.ByteIdentical)
	for name, t := range f.Tenants {
		fmt.Fprintf(w, "  tenant %-10s submitted %3d  completed %3d  rejected %3d  max queue depth %d\n",
			name, t.Submitted, t.Completed, t.Rejected, t.MaxQueueDepth)
	}
}
