package main

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"nowomp/internal/bench"
	"nowomp/internal/omp"
	"nowomp/internal/scenario"
)

// counts are the exact, simulated statistics of one operation, keyed
// by per-layer metric name. They are read after the run through the
// layers' public accessors and repeat exactly on every run of the same
// inputs, at any GOMAXPROCS.
type counts map[string]float64

// maxCounts lists the counts that combine across operations by
// maximum; every other count adds.
var maxCounts = map[string]bool{"simnet.max_link_mb": true, "farm.max_queue_depth": true}

func (c counts) add(o counts) {
	for k, v := range o {
		if maxCounts[k] {
			c[k] = max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

// runtimeCounts reads every count a finished runtime exposes.
func runtimeCounts(rt *omp.Runtime) counts {
	st := rt.Cluster().Stats().Snapshot()
	net := rt.Cluster().Fabric().Snapshot()
	_, _, maxLink := net.MaxLink()
	c := counts{
		"dsm.read_faults":     float64(st.ReadFaults),
		"dsm.write_faults":    float64(st.WriteFaults),
		"dsm.twins_created":   float64(st.TwinsCreated),
		"dsm.diffs_created":   float64(st.DiffsCreated),
		"dsm.diff_fetches":    float64(st.DiffFetches),
		"dsm.page_fetches":    float64(st.PageFetches),
		"dsm.home_flushes":    float64(st.HomeFlushes),
		"dsm.lock_acquires":   float64(st.LockAcquires),
		"dsm.barriers":        float64(st.Barriers),
		"dsm.gcs":             float64(st.GCs),
		"dsm.elided_twins":    float64(st.ElidedTwins),
		"dsm.elided_diffs":    float64(st.ElidedDiffs),
		"dsm.home_migrations": float64(st.HomeMigrations),
		"simnet.messages":     float64(net.TotalMessages()),
		"simnet.bytes":        float64(net.TotalBytes()),
		"simnet.max_link_mb":  float64(maxLink) / 1e6,
		"omp.forks":           float64(rt.Forks()),
	}
	for _, ap := range rt.AdaptLog() {
		c["adapt.adaptations"] += float64(len(ap.Applied))
		c["adapt.sim_cost_s"] += float64(ap.Elapsed)
		c["adapt.window_mb"] += float64(ap.WindowBytes) / 1e6
	}
	return c
}

// opResult is the outcome of one operation of a pass: one scenario, or
// the bench.Protocols call.
type opResult struct {
	Name string
	Hash string
	Wall time.Duration
	// Body is the encoded result, the bytes a user of nowomp-run or the
	// farm would receive; passes must agree on it byte for byte.
	Body     []byte
	Checksum float64
	// SimSeconds, Messages and Bytes are the simulated run time and
	// fabric traffic.
	SimSeconds float64
	Messages   int64
	Bytes      int64
	// Jobs is the number of simulations the operation ran (the rows of
	// a Protocols call, else 1).
	Jobs        int
	Adaptations int
	Counts      counts
	Err         error
}

// runScenario takes one spec through the steps scenario.Spec.Run
// performs — normalize, hash, build, run the kernel, assemble and
// encode the result — one public call at a time, so that each can
// carry a span and the finished runtime's counters can be read. A
// panic anywhere in the simulation comes back as the operation's
// error, like the farm's RunChecked.
func runScenario(spec scenario.Spec, tr *tracer, parent, track int) (op opResult) {
	op.Name = fmt.Sprintf("%s/%s/%dp", spec.Kernel, spec.Protocol, spec.Procs)
	op.Jobs = 1
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			op.Err = fmt.Errorf("run panicked: %v", firstLine(fmt.Sprint(v)))
		}
		op.Wall = time.Since(start)
	}()

	root := tr.begin("scenario.run", "", parent, track)
	defer func() { tr.end(root) }()

	id := tr.begin("scenario.normalize_hash", "", root, track)
	norm, err := spec.Normalize()
	if err == nil {
		op.Hash, err = norm.Hash()
	}
	tr.end(id)
	tr.setHash(root, op.Hash)
	tr.setHash(id, op.Hash)
	if err != nil {
		op.Err = err
		return op
	}

	id = tr.begin("scenario.build", op.Hash, root, track)
	rt, _, err := norm.Build()
	tr.end(id)
	if err != nil {
		op.Err = err
		return op
	}
	runner, err := norm.Runner()
	if err != nil {
		op.Err = err
		return op
	}

	id = tr.begin("apps.run", op.Hash, root, track)
	res, err := runner.Run(rt, norm.Scale)
	tr.end(id)
	if err != nil {
		op.Err = err
		return op
	}

	id = tr.begin("scenario.encode", op.Hash, root, track)
	op.Counts = runtimeCounts(rt)
	op.Adaptations = int(op.Counts["adapt.adaptations"])
	// The same assembly as scenario.Spec.Run; TestStepwiseMatchesRun and
	// the traced run's black-box pass hold the two together.
	op.Body, err = scenario.Result{
		Scenario:    fmt.Sprintf("farm/%s/%dp", norm.Kernel, norm.Procs),
		Seconds:     float64(res.Time),
		Bytes:       res.Bytes,
		Messages:    res.Messages,
		Hash:        op.Hash,
		Spec:        norm,
		Pages:       res.Pages,
		Diffs:       res.Diffs,
		SharedBytes: res.SharedBytes,
		Checksum:    res.Checksum,
		Verified:    norm.Verify,
		TeamFinal:   rt.NProcs(),
		Adaptations: op.Adaptations,
	}.Encode()
	tr.end(id)
	if err != nil {
		op.Err = err
		return op
	}
	op.Checksum = res.Checksum
	op.SimSeconds = float64(res.Time)
	op.Messages, op.Bytes = res.Messages, res.Bytes
	return op
}

// runBlackBox runs the spec the way nowomp-run and the farm's workers
// do, through Spec.Run and Result.Encode alone.
func runBlackBox(spec scenario.Spec) (op opResult) {
	op.Name = fmt.Sprintf("%s/%s/%dp", spec.Kernel, spec.Protocol, spec.Procs)
	op.Jobs = 1
	start := time.Now()
	res, err := spec.RunChecked()
	if err == nil {
		op.Body, err = res.Encode()
	}
	op.Wall = time.Since(start)
	op.Err = err
	op.Hash, op.Checksum = res.Hash, res.Checksum
	op.SimSeconds, op.Messages, op.Bytes = res.Seconds, res.Messages, res.Bytes
	op.Adaptations = res.Adaptations
	return op
}

// runProtocols makes the bench.Protocols call of a sync-3proto pass.
// The call checks its own outputs (every kernel verifies its result
// and the hybrid byte contracts are enforced); its formatted table is
// the body passes must agree on.
func runProtocols(call protocolsCall, tr *tracer, parent int) (op opResult) {
	op.Name = "bench.protocols"
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			op.Err = fmt.Errorf("bench.Protocols panicked: %v", firstLine(fmt.Sprint(v)))
		}
		op.Wall = time.Since(start)
	}()
	id := tr.begin("bench.protocols", "", parent, 0)
	rows, err := bench.Protocols(bench.Options{Scale: call.Scale, Hosts: call.Hosts})
	tr.end(id)
	if err != nil {
		op.Err = err
		return op
	}
	op.Jobs = len(rows)
	op.Counts = counts{"bench.rows": float64(len(rows))}
	for _, r := range rows {
		if !r.Verified {
			op.Err = fmt.Errorf("bench.Protocols row %s/%s/%s/%s not verified", r.Kernel, r.Scenario, r.Schedule, r.Protocol)
			return op
		}
		op.SimSeconds += float64(r.Time)
		op.Messages += r.Messages
		op.Bytes += r.Bytes
		// The matrix reports each row's traffic, not its runtime's
		// counters: the dsm.*, omp.* and adapt.* counts of a report
		// cover the scenarios only.
		op.Counts.add(counts{"simnet.messages": float64(r.Messages), "simnet.bytes": float64(r.Bytes)})
	}
	op.Body = []byte(bench.FormatProtocols(rows))
	return op
}

// hostUsage is a reading of the Go runtime's cumulative costs.
type hostUsage struct {
	mem runtime.MemStats
	// schedEvents is the sample count of the runtime's
	// /sched/latencies histogram: the runtime records there a fixed
	// share of the times a goroutine is made runnable and then run.
	// The engine hands its token from goroutine to goroutine, so the
	// count follows the engine's process switches; probeEngine measures
	// how many switches stand behind one recorded event.
	schedEvents uint64
}

func readHostUsage() hostUsage {
	var u hostUsage
	runtime.ReadMemStats(&u.mem)
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64Histogram {
		for _, c := range sample[0].Value.Float64Histogram().Counts {
			u.schedEvents += c
		}
	}
	return u
}

// hostDelta is what one pass cost the Go runtime.
type hostDelta struct {
	AllocMB     float64
	NumGC       float64
	GCPauseMS   float64
	SchedEvents float64
}

func (after hostUsage) since(before hostUsage) hostDelta {
	return hostDelta{
		AllocMB:     float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6,
		NumGC:       float64(after.mem.NumGC - before.mem.NumGC),
		GCPauseMS:   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		SchedEvents: float64(after.schedEvents - before.schedEvents),
	}
}

// record stores the delta under the host.* metric names.
func (d hostDelta) record(m map[string]float64) {
	m["host.alloc_mb"] = d.AllocMB
	m["host.num_gc"] = d.NumGC
	m["host.gc_pause_ms"] = d.GCPauseMS
	m["host.sched_events"] = d.SchedEvents
}

// passResult is one timed pass over a batch workload's operations.
type passResult struct {
	Wall time.Duration
	Ops  []opResult
	Host hostDelta
}

// runPass runs the operations once, one at a time, as a CLI user
// would. With blackBox the scenarios go through Spec.Run (the traced
// run's untraced comparison pass); otherwise stepwise, with spans when
// tr is not nil.
func runPass(in inputs, tr *tracer, blackBox bool) passResult {
	before := readHostUsage()
	start := time.Now()
	root := tr.begin("pass", "", 0, 0)
	var ops []opResult
	if in.Protocols != nil {
		ops = append(ops, runProtocols(*in.Protocols, tr, root))
	}
	for _, spec := range in.Specs {
		if blackBox {
			ops = append(ops, runBlackBox(spec))
		} else {
			ops = append(ops, runScenario(spec, tr, root, 0))
		}
	}
	tr.end(root)
	wall := time.Since(start)
	return passResult{Wall: wall, Ops: ops, Host: readHostUsage().since(before)}
}

// failure names one failed attempt.
type failure struct {
	Op     string `json:"op"`
	Reason string `json:"reason"`
}

// checkPasses counts attempts and failures over the passes. An attempt
// is one operation of one pass. It fails when the operation returned
// an error or panicked, when its result bytes, simulated time, traffic
// or any count differ from the first pass's, when its checksum is not
// bit-equal to the sequential reference, or when it applied fewer adapt
// events than the workload demands.
func checkPasses(in inputs, passes []passResult, refs []float64) (attempted int, failures []failure) {
	for pi, p := range passes {
		for oi, op := range p.Ops {
			attempted++
			first := passes[0].Ops[oi]
			fail := func(format string, args ...any) {
				failures = append(failures, failure{
					Op:     fmt.Sprintf("pass %d %s", pi, op.Name),
					Reason: fmt.Sprintf(format, args...),
				})
			}
			switch {
			case op.Err != nil:
				fail("%v", op.Err)
			case first.Err == nil && !bytes.Equal(op.Body, first.Body):
				fail("result bytes differ from pass 0")
			case first.Err == nil && (op.SimSeconds != first.SimSeconds || op.Bytes != first.Bytes || op.Messages != first.Messages):
				fail("simulated time or traffic differs from pass 0")
			case first.Err == nil && !maps.Equal(op.Counts, first.Counts):
				fail("exact counts differ from pass 0")
			case op.Name != "bench.protocols" && math.Float64bits(op.Checksum) != math.Float64bits(refs[specIndex(in, oi)]):
				fail("checksum %v is not the sequential reference %v", op.Checksum, refs[specIndex(in, oi)])
			case in.Adaptations != 0 && op.Adaptations != in.Adaptations:
				fail("%d adaptations applied, want %d", op.Adaptations, in.Adaptations)
			}
		}
	}
	return attempted, failures
}

// specIndex maps an operation index of a pass to its index in
// in.Specs (the Protocols call, when present, is operation 0).
func specIndex(in inputs, op int) int {
	if in.Protocols != nil {
		return op - 1
	}
	return op
}

// references computes each scenario's sequential reference checksum,
// the plain single-threaded run of the same problem. It runs once,
// after the timed passes, and is not part of wall_s.
func references(in inputs, tr *tracer) ([]float64, error) {
	refs := make([]float64, len(in.Specs))
	root := tr.begin("verify", "", 0, 0)
	defer tr.end(root)
	for i, spec := range in.Specs {
		runner, err := spec.Runner()
		if err != nil {
			return nil, err
		}
		hash, _ := spec.Hash()
		id := tr.begin("apps.reference", hash, root, 0)
		refs[i] = runner.Reference(spec.Scale)
		tr.end(id)
	}
	return refs, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
