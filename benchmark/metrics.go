package main

// metric declares one number the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and bounds;
// TestRegistryMatchesBenchmarkJSON holds the two together.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before the change is a regression. Per-layer
	// metrics have none.
	Bound float64
	// Kind is "host" (time or memory of the machine running the
	// simulator: noisy) or "simulated" (a statistic of the modelled
	// 1999 NOW: exact, identical at any GOMAXPROCS).
	Kind string
	// Source says how a per-layer number is obtained: "count" (read
	// through a public accessor after the run), "span" (self time of
	// the harness's spans in the traced run), "probe" (the layer's
	// public functions timed alone), "estimate" (count x probe cost /
	// apps.run_s) or "ratio".
	Source string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one of them.
//
//   - setup_s: input generation from the seed plus one warm-up of every
//     kernel and protocol the workload uses (on farm-mix through a
//     throwaway server; then the server, listener and clients of the
//     window are started). Median of setupRounds set-ups spread over
//     the run.
//   - wall_s: one pass over the workload's operations, each of them
//     Normalize+Hash+Build+Run+Encode (or the bench.Protocols call);
//     median pass. On farm-mix, the window in which the clients
//     complete the whole submission sequence.
//   - sim_msgs_per_s: simulated fabric messages of a pass / that
//     pass's wall: host time per simulated event.
//   - jobs_per_s: simulations completed per second of wall (a
//     Protocols call counts its rows; on farm-mix every submission
//     counts, hits included).
//   - fresh_p50_ms, fresh_p90_ms: what the caller of one uncached
//     simulation waits. On farm-mix, POST ?wait=true to result body
//     fetched, over the fresh jobs; on a batch workload an operation's
//     latency is the median of its wall over the passes, and the two
//     metrics are the median and the 90th percentile (the slowest
//     operation) over the workload's four or seven operations.
//   - peak_rss_mb: VmHWM of the workload's process at exit.
//
// Every bound is 25%, the most BENCHMARK.json allows. On the two-core
// sandbox this was written on, the run time of one fixed scenario
// drifts by a sixth over minutes (220 back-to-back runs: the quartiles
// of 18-second windows lie 15% of the median apart, whether a window
// reports its median, its fastest pass or its lower quartile), so two
// sets of runs there differ by up to that much with no change at all.
// In quiet spells the same ten-seed spreads are 2 to 5%. A claim
// therefore rests on paired, alternating runs, not on these bounds.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "sim_msgs_per_s", Unit: "msgs/s", Better: "higher", Bound: 0.25, Kind: "host"},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25, Kind: "host"},
	{Name: "fresh_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "fresh_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
}

// exactEndToEnd complete the end-to-end table of a report. The
// benchmark enforces them itself — any difference between passes, or
// between the two sets of -selfcheck, fails the run — because their
// bound is zero: a change meant to speed up the simulator must leave
// every simulated statistic identical. BENCHMARK.json cannot carry
// them as end-to-end metrics (failed_frac is 0 on a healthy run, and a
// statistic that repeats exactly has no spread to hold within a
// bound), so the driver sees failed_frac as failed/attempted and the
// two simulated totals as the per-layer metrics sim.seconds and
// sim.fabric_mb.
var exactEndToEnd = []metric{
	{Name: "sim_seconds", Unit: "sim_s", Better: "lower", Kind: "simulated"},
	{Name: "fabric_mb", Unit: "MB", Better: "lower", Kind: "simulated"},
	{Name: "failed_frac", Unit: "fraction", Better: "lower", Kind: "host"},
}

func count(name, unit string) metric {
	return metric{Name: name, Unit: unit, Better: "lower", Kind: "simulated", Source: "count"}
}

// hostCount is a count that depends on real-time interleaving (which
// of two concurrent submissions of one scenario leads) and so need not
// repeat.
func hostCount(name string) metric {
	return metric{Name: name, Unit: "count", Better: "lower", Kind: "host", Source: "count"}
}

func probeNS(name string) metric {
	return metric{Name: name, Unit: "ns", Better: "lower", Kind: "host", Source: "probe"}
}

func probeUS(name string) metric {
	return metric{Name: name, Unit: "us", Better: "lower", Kind: "host", Source: "probe"}
}

func spanS(name string) metric {
	return metric{Name: name, Unit: "s", Better: "lower", Kind: "host", Source: "span"}
}

func farmMS(name string) metric {
	return metric{Name: name, Unit: "ms", Better: "lower", Kind: "host", Source: "window"}
}

// perLayer are the metrics of single layers, from the traced run. A
// metric that does not apply to a workload (farm.* on a batch
// workload, apps.reference_s on farm-mix) reads 0 there.
var perLayer = []metric{
	// sim: the simulated totals of one pass (the end-to-end table's
	// sim_seconds and fabric_mb).
	count("sim.seconds", "sim_s"),
	count("sim.fabric_mb", "MB"),

	// scenario: spec -> runtime -> result bytes.
	spanS("scenario.normalize_hash_s"),
	spanS("scenario.build_s"),
	spanS("scenario.encode_s"),
	probeNS("scenario.decode_ns"),

	// apps: kernel arithmetic on the DSM, and the plain sequential run
	// of the same problems.
	spanS("apps.run_s"),
	spanS("apps.reference_s"),
	{Name: "apps.dsm_slowdown", Unit: "x", Better: "lower", Kind: "host", Source: "ratio"},

	// omp: fork/join and runtime construction.
	count("omp.forks", "count"),
	probeNS("omp.forkjoin_ns"),
	probeUS("omp.new_us"),

	// engine: virtual-time process switching.
	probeNS("engine.switch_ns"),
	probeNS("engine.fastpath_ns"),
	probeNS("engine.spawn_ns"),
	{Name: "engine.est_switches", Unit: "count", Better: "lower", Kind: "host", Source: "estimate"},
	{Name: "engine.est_share", Unit: "fraction", Better: "lower", Kind: "host", Source: "estimate"},

	// dsm: the coherence protocols' events...
	count("dsm.read_faults", "count"),
	count("dsm.write_faults", "count"),
	count("dsm.twins_created", "count"),
	count("dsm.diffs_created", "count"),
	count("dsm.diff_fetches", "count"),
	count("dsm.page_fetches", "count"),
	count("dsm.home_flushes", "count"),
	count("dsm.lock_acquires", "count"),
	count("dsm.barriers", "count"),
	count("dsm.gcs", "count"),
	count("dsm.elided_twins", "count"),
	count("dsm.elided_diffs", "count"),
	count("dsm.home_migrations", "count"),
	// ...the share of created diffs that anyone ever used...
	{Name: "dsm.diff_use_ratio", Unit: "ratio", Better: "higher", Kind: "simulated", Source: "ratio"},
	// ...and each protocol's fault, barrier and lock paths alone.
	probeNS("dsm.write_fault_ns.tmk"), probeNS("dsm.write_fault_ns.hlrc"), probeNS("dsm.write_fault_ns.hybrid"),
	probeNS("dsm.read_fault_ns.tmk"), probeNS("dsm.read_fault_ns.hlrc"), probeNS("dsm.read_fault_ns.hybrid"),
	probeUS("dsm.barrier_us.tmk"), probeUS("dsm.barrier_us.hlrc"), probeUS("dsm.barrier_us.hybrid"),
	probeNS("dsm.lock_pair_ns.tmk"), probeNS("dsm.lock_pair_ns.hlrc"), probeNS("dsm.lock_pair_ns.hybrid"),

	// page: the twin/diff codec and its buffer pool.
	probeNS("page.twin_ns"),
	probeNS("page.make_sparse_ns"),
	probeNS("page.make_dense_ns"),
	probeNS("page.apply_sparse_ns"),
	probeNS("page.apply_dense_ns"),
	probeNS("page.overlap_ns"),
	{Name: "page.est_share", Unit: "fraction", Better: "lower", Kind: "host", Source: "estimate"},

	// shmem: typed accessors and spans over valid pages.
	probeNS("shmem.get_ns"),
	probeNS("shmem.set_ns"),
	{Name: "shmem.readspan_ns_per_kb", Unit: "ns/KB", Better: "lower", Kind: "host", Source: "probe"},
	{Name: "shmem.writespan_ns_per_kb", Unit: "ns/KB", Better: "lower", Kind: "host", Source: "probe"},

	// vc, simnet: vector clocks and the fabric counters.
	probeNS("vc.merge_ns"),
	probeNS("simnet.record_ns"),
	count("simnet.messages", "count"),
	count("simnet.bytes", "bytes"),
	count("simnet.max_link_mb", "MB"),

	// task: work stealing.
	probeNS("task.spawn_wait_ns"),

	// adapt: the paper's Table 2 columns.
	count("adapt.adaptations", "count"),
	count("adapt.sim_cost_s", "sim_s"),
	count("adapt.window_mb", "MB"),

	// bench: the protocol matrix, and what tracing costs.
	spanS("bench.protocols_s"),
	count("bench.rows", "count"),
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower", Kind: "host", Source: "ratio"},

	// farm: the HTTP service, its queue and its store.
	farmMS("farm.hit_p50_ms"),
	farmMS("farm.hit_p95_ms"),
	farmMS("farm.queue_p50_ms"),
	farmMS("farm.queue_p90_ms"),
	farmMS("farm.sim_p50_ms"),
	farmMS("farm.sim_p90_ms"),
	farmMS("farm.http_overhead_p50_ms"),
	farmMS("farm.result_fetch_p50_ms"),
	{Name: "farm.worker_busy_frac", Unit: "fraction", Better: "higher", Kind: "host", Source: "ratio"},
	hostCount("farm.hits"),
	hostCount("farm.misses"),
	hostCount("farm.dedups"),
	hostCount("farm.rejected_429"),
	hostCount("farm.max_queue_depth"),
	probeNS("farm.store_begin_hit_ns"),
	probeUS("farm.submit_hit_us"),

	// host: what the traced pass cost the Go runtime.
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower", Kind: "host", Source: "count"},
	hostCount("host.num_gc"),
	hostCount("host.sched_events"),
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Kind: "host", Source: "count"},
}
