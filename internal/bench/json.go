package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"nowomp/internal/dsm"
)

// Machine-readable bench results (-json): one record per measured
// scenario, so the performance trajectory can be tracked across PRs by
// diffing committed BENCH_*.json files. Experiments with natural
// scenario rows contribute — table1, tasking, hetero and protocols —
// keyed "experiment/scenario[/qualifiers]"; the remaining experiments
// are narrative tables and stay text-only.

// Record is one scenario's measurement.
type Record struct {
	// Scenario is the slash-separated cell key, e.g.
	// "protocols/migratory/homog/-/hlrc".
	Scenario string `json:"scenario"`
	// Seconds is the scenario's virtual (simulated) time.
	Seconds float64 `json:"seconds"`
	// Bytes and Messages are the scenario's fabric traffic.
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	// Coherence is the hybrid protocol's classification and adaptation
	// record, present only on protocols cells that ran hybrid (schema 4).
	Coherence *dsm.HybridStats `json:"coherence,omitempty"`
}

// Report is the on-disk -json document.
type Report struct {
	// Schema versions the document layout.
	Schema int `json:"schema"`
	// Scale and Hosts record the options the run used; records are
	// comparable across PRs only at matching scale and pool size.
	Scale float64 `json:"scale"`
	Hosts int     `json:"hosts"`
	// Parallel is the scenario worker-pool size the run used and
	// WallSeconds its real (wall-clock) duration. They are run
	// metadata, not results: every field of every Results record is
	// byte-identical at any Parallel level (the CI determinism gate
	// diffs reports across levels with exactly these two lines
	// filtered out).
	Parallel    int      `json:"parallel"`
	WallSeconds float64  `json:"wall_seconds"`
	Results     []Record `json:"results"`
	// Farm is the farm load-driver section (nil for plain bench runs):
	// per-job queue/sim/total latency, cache-hit ratio, throughput and
	// admission-control evidence. Schema 3 added it.
	Farm *FarmSection `json:"farm,omitempty"`
}

// ReportSchema is the current -json document version. Schema 2 added
// the parallel and wall_seconds run metadata; schema 3 added the farm
// section with per-job queue/sim/total latency and the cache-hit
// ratio; schema 4 added the additive per-record coherence object on
// protocols cells run under the hybrid protocol.
const ReportSchema = 4

// FarmJob is one served job in the farm section. The latency split is
// real (wall-clock) seconds: queue is admission wait (for a dedup job,
// the wait on the in-flight leader), sim is worker occupancy, total is
// submission to terminal state.
type FarmJob struct {
	Job          string  `json:"job"`
	Tenant       string  `json:"tenant"`
	Scenario     string  `json:"scenario"`
	Hash         string  `json:"hash"`
	Cache        string  `json:"cache"`
	QueueSeconds float64 `json:"queue_seconds"`
	SimSeconds   float64 `json:"sim_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// FarmTenant is one tenant's admission-control record.
type FarmTenant struct {
	Submitted     int64 `json:"submitted"`
	Completed     int64 `json:"completed"`
	Rejected      int64 `json:"rejected"`
	MaxQueueDepth int   `json:"max_queue_depth"`
}

// FarmSection is the farm load-driver report: the aggregate service
// metrics plus every job's latency record.
type FarmSection struct {
	// Trace names the arrival process (poisson, diurnal or mix) and
	// Seed its generator seed; Jobs is the number served.
	Trace string `json:"trace"`
	Seed  int64  `json:"seed"`
	Jobs  int    `json:"jobs"`
	// Workers/QueueCap/MaxInflight echo the service limits.
	Workers     int `json:"workers"`
	QueueCap    int `json:"queue_cap"`
	MaxInflight int `json:"max_inflight"`
	// ThroughputJobsPerSec is completed jobs over the serving window;
	// P50/P95/P99 are total-latency percentiles in seconds.
	ThroughputJobsPerSec float64 `json:"throughput_jobs_per_sec"`
	P50Seconds           float64 `json:"p50_seconds"`
	P95Seconds           float64 `json:"p95_seconds"`
	P99Seconds           float64 `json:"p99_seconds"`
	// CacheHitRatio is (hits+dedups)/completed; Retries429 counts
	// submissions that had to retry after a 429.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Retries429    int64   `json:"retries_429"`
	// ByteIdentical records the driver's verification that every
	// served response matched a sequential re-run byte for byte.
	ByteIdentical bool                  `json:"byte_identical"`
	Tenants       map[string]FarmTenant `json:"tenants"`
	PerJob        []FarmJob             `json:"per_job"`
}

// NewReport starts a report for one bench invocation.
func NewReport(opt Options) *Report {
	opt = opt.withDefaults()
	parallel := opt.Parallel
	if parallel < 1 {
		parallel = 1
	}
	// Results starts non-nil so an empty report marshals as [] rather
	// than null — consumers iterate it unconditionally.
	return &Report{Schema: ReportSchema, Scale: opt.Scale, Hosts: opt.Hosts,
		Parallel: parallel, Results: []Record{}}
}

// Write renders the report, scenarios sorted for stable diffs, to
// path atomically (temp file plus rename).
func (r *Report) Write(path string) error {
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Scenario < r.Results[j].Scenario })
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode json report: %w", err)
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("bench: write json report: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("bench: write json report: %w", err)
	}
	return nil
}
