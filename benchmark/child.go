package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nowomp/internal/scenario"
)

const (
	// setupRounds is how many times a run sets up; setup_s is their
	// median, so one slow first round (the process's cold start) does
	// not decide it.
	setupRounds = 5
	// minPasses is the fewest timed passes a batch workload makes.
	minPasses = 3
	// warmScale is the problem scale of warm-up runs.
	warmScale = 0.06
	// unstableSpread flags a batch workload whose passes disagree:
	// (max - min) / median above it.
	unstableSpread = 0.10
)

// runOptions is what the parent passes to the child of one workload.
type runOptions struct {
	Workload string
	Seed     int64
	Seconds  float64
	Quick    bool
	// TracePath, when set, selects the traced run and names the Chrome
	// trace file it writes.
	TracePath string
}

// childReport is what the child of one workload hands back.
type childReport struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []failure          `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples gives the sample behind each timing metric that has one.
	Samples map[string]summary `json:"samples,omitempty"`
	// Passes are the walls of a batch workload's timed passes, in
	// seconds.
	Passes []float64 `json:"passes,omitempty"`
	// Ops are a batch workload's operations in the order they ran, each
	// with the median of its wall over the passes.
	Ops []opLatency `json:"ops,omitempty"`
	// Unstable is set when a batch workload's passes spread by more
	// than unstableSpread of their median.
	Unstable  bool   `json:"unstable,omitempty"`
	TracePath string `json:"trace_path,omitempty"`
	Error     string `json:"error,omitempty"`
}

// opLatency is the latency of one operation of a batch workload.
type opLatency struct {
	Name     string  `json:"name"`
	MedianMS float64 `json:"median_ms"`
}

// runWorkload runs one workload in this process and reports.
func runWorkload(opt runOptions, env environment) childReport {
	w, ok := workloadByName(opt.Workload)
	if !ok {
		return childReport{Workload: opt.Workload, Error: fmt.Sprintf("unknown workload %q", opt.Workload)}
	}
	rep := childReport{
		Workload: w.Name, Traced: opt.TracePath != "",
		Metrics: map[string]float64{}, Samples: map[string]summary{},
	}
	run := runBatch
	if w.Name == "farm-mix" {
		run = runFarm
	}
	failures, err := run(w, opt, env, &rep)
	if err != nil {
		rep.Error = err.Error()
	}
	rep.Failed = len(failures)
	rep.Failures = failures[:min(len(failures), 10)]
	if rep.Attempted > 0 {
		rep.Metrics["failed_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.Metrics["peak_rss_mb"] = peakRSSMB()
	return rep
}

// setups times a workload's set-up. A run sets up setupRounds times
// and setup_s is the median; the rounds are spread over the run — one
// before the first timed operation, the others between and after the
// timed parts — so that one burst of noise on the box cannot sit under
// all of them. A traced run, which does not report setup_s, sets up
// once.
type setups struct {
	once func() error
	took []float64
}

// round sets up once and times it.
func (s *setups) round() error {
	start := time.Now()
	if err := s.once(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s.took = append(s.took, time.Since(start).Seconds())
	return nil
}

// due reports whether an untraced run still owes set-up rounds.
func (s *setups) due(rep *childReport) bool {
	return !rep.Traced && len(s.took) < setupRounds
}

func (s *setups) record(rep *childReport) {
	rep.Samples["setup_s"] = summarize(s.took)
	rep.Metrics["setup_s"] = median(s.took)
}

// warmBatch runs every operation of the workload once at warmScale,
// so that no timed pass pays a kernel's or a protocol's first use in
// the process. A failing warm-up is not reported: the timed passes run
// the same code and count the failure.
func warmBatch(in inputs) {
	if in.Protocols != nil {
		runProtocols(protocolsCall{Scale: warmScale, Hosts: in.Protocols.Hosts}, nil, 0)
	}
	for _, spec := range in.Specs {
		runBlackBox(scenario.Spec{Kernel: spec.Kernel, Scale: warmScale, Procs: spec.Procs, Hosts: spec.Hosts, Protocol: spec.Protocol})
	}
}

func runBatch(w workload, opt runOptions, env environment, rep *childReport) ([]failure, error) {
	var in inputs
	su := setups{once: func() error {
		in = generateInputs(w, opt.Seed, opt.Quick)
		warmBatch(in)
		return nil
	}}
	if err := su.round(); err != nil {
		return nil, err
	}

	var passes []passResult
	var tr *tracer
	var blackBox passResult
	if rep.Traced {
		// The untraced comparison pass goes through Spec.Run alone; the
		// traced pass repeats it stepwise with spans.
		blackBox = runPass(in, nil, true)
		tr = newTracer(w.Name)
		passes = append(passes, runPass(in, tr, false))
	} else {
		want := minPasses
		if opt.Quick {
			want = 1
		}
		start := time.Now()
		for len(passes) < want || (!opt.Quick && time.Since(start).Seconds() < opt.Seconds) {
			passes = append(passes, runPass(in, nil, false))
			if su.due(rep) {
				if err := su.round(); err != nil {
					return nil, err
				}
			}
		}
	}

	refs, err := references(in, tr)
	if err != nil {
		return nil, err
	}
	for su.due(rep) {
		if err := su.round(); err != nil {
			return nil, err
		}
	}
	su.record(rep)
	attempted, failures := checkPasses(in, passes, refs)
	if rep.Traced {
		for i, op := range blackBox.Ops {
			attempted++
			switch step := passes[0].Ops[i]; {
			case op.Err != nil:
				failures = append(failures, failure{Op: "black-box " + op.Name, Reason: op.Err.Error()})
			case step.Err == nil && !bytes.Equal(op.Body, step.Body):
				failures = append(failures, failure{Op: "black-box " + op.Name, Reason: "Spec.Run result bytes differ from the stepwise run"})
			}
		}
	}
	rep.Attempted = attempted

	// End-to-end metrics, from the passes. Every pass completes the
	// same simulations and the same simulated messages (checkPasses
	// fails the run otherwise), so the rates divide the first pass's
	// totals by the median wall.
	//
	// The latency of an operation is the median of its wall over the
	// passes, and fresh_p50_ms and fresh_p90_ms are percentiles over the
	// operations. (Percentiles of the walls pooled over the passes sit on
	// the edge between two kinds of operation, at the slowest pass of one
	// or the fastest of the next, and moved by 13% between seeds whose
	// passes agreed within 3%.)
	var walls []float64
	for _, p := range passes {
		walls = append(walls, p.Wall.Seconds())
	}
	opLatencies := make([]float64, len(passes[0].Ops))
	for oi, op := range passes[0].Ops {
		var ms []float64
		for _, p := range passes {
			ms = append(ms, p.Ops[oi].Wall.Seconds()*1e3)
		}
		opLatencies[oi] = median(ms)
		rep.Ops = append(rep.Ops, opLatency{Name: op.Name, MedianMS: opLatencies[oi]})
	}
	// Simulated totals and counts come from the first pass.
	total := counts{}
	var msgs, fabricBytes int64
	var simSeconds float64
	jobs := 0
	for _, op := range passes[0].Ops {
		msgs += op.Messages
		jobs += op.Jobs
		simSeconds += op.SimSeconds
		fabricBytes += op.Bytes
		total.add(op.Counts)
	}
	ws := summarize(walls)
	rep.Passes = walls
	rep.Samples["wall_s"] = ws
	rep.Samples["fresh_ms"] = summarize(opLatencies)
	rep.Metrics["wall_s"] = ws.Median
	rep.Metrics["sim_msgs_per_s"] = float64(msgs) / ws.Median
	rep.Metrics["jobs_per_s"] = float64(jobs) / ws.Median
	rep.Metrics["fresh_p50_ms"] = median(opLatencies)
	rep.Metrics["fresh_p90_ms"] = pct(opLatencies, 0.9)
	rep.Unstable = len(walls) >= minPasses && (ws.Max-ws.Min)/ws.Median > unstableSpread

	rep.Metrics["sim_seconds"] = simSeconds
	rep.Metrics["fabric_mb"] = float64(fabricBytes) / 1e6
	for k, v := range total {
		rep.Metrics[k] = v
	}
	passes[len(passes)/2].Host.record(rep.Metrics)

	if rep.Traced {
		rep.Metrics["bench.trace_overhead_frac"] = passes[0].Wall.Seconds()/blackBox.Wall.Seconds() - 1
		if err := finishTrace(tr, opt, env, rep); err != nil {
			return failures, err
		}
	}
	return failures, nil
}

func runFarm(w workload, opt runOptions, env environment, rep *childReport) ([]failure, error) {
	n := runtime.NumCPU()
	var in inputs
	var rig *farmRig
	su := setups{once: func() error {
		in = generateInputs(w, opt.Seed, opt.Quick)
		if err := warmFarm(n); err != nil {
			return err
		}
		var err error
		rig, err = startFarm(n)
		return err
	}}
	err := su.round()
	if err != nil {
		return nil, err
	}
	// moreSetups makes up to k further set-up rounds, taking each one's
	// server down again.
	moreSetups := func(k int) error {
		for ; k > 0 && su.due(rep); k-- {
			if err := su.round(); err != nil {
				return err
			}
			rig.stop()
		}
		return nil
	}

	// A traced run drives the sequence twice, each time against a cold
	// store: once untraced, for the overhead, and once with spans.
	var tr *tracer
	var untraced farmWindow
	if rep.Traced {
		untraced, err = runFarmWindow(rig, in, nil)
		rig.stop()
		if err != nil {
			return nil, err
		}
		if rig, err = startFarm(n); err != nil {
			return nil, err
		}
		tr = newTracer(w.Name)
	}
	win, err := runFarmWindow(rig, in, tr)
	rig.stop()
	if err != nil {
		return nil, err
	}
	if err := moreSetups(setupRounds / 2); err != nil {
		return nil, err
	}
	audit := auditFarm(in, n, tr)
	if err := moreSetups(setupRounds); err != nil {
		return nil, err
	}
	su.record(rep)
	attempted, failures := checkFarm(win, audit)
	rep.Attempted = attempted

	var fresh, hit, queue, sim, overhead, fetch []float64
	var busy float64
	c := counts{"farm.rejected_429": 0}
	for _, s := range win.Subs {
		if s.Err != nil {
			if s.Status == 429 {
				c["farm.rejected_429"]++
			}
			continue
		}
		ms := s.Latency.Seconds() * 1e3
		fetch = append(fetch, s.Fetch.Seconds()*1e3)
		if s.View.Cache == "fresh" {
			fresh = append(fresh, ms)
			queue = append(queue, s.View.QueueSeconds*1e3)
			sim = append(sim, s.View.SimSeconds*1e3)
			overhead = append(overhead, (s.Post.Seconds()-s.View.TotalSeconds)*1e3)
			busy += s.View.SimSeconds
		} else {
			hit = append(hit, ms)
		}
	}
	var msgs, fabricBytes int64
	var simSeconds float64
	for _, op := range audit {
		msgs += op.Messages
		fabricBytes += op.Bytes
		simSeconds += op.SimSeconds
		c.add(op.Counts)
	}
	for _, t := range win.Stats.Tenants {
		c["farm.max_queue_depth"] = max(c["farm.max_queue_depth"], float64(t.MaxQueueDepth))
	}
	c["farm.hits"] = float64(win.Stats.Cache.Hits)
	c["farm.misses"] = float64(win.Stats.Cache.Misses)
	c["farm.dedups"] = float64(win.Stats.Cache.Dedups)

	wall := win.Wall.Seconds()
	rep.Samples["fresh_ms"] = summarize(fresh)
	m := rep.Metrics
	m["wall_s"] = wall
	m["sim_msgs_per_s"] = float64(msgs) / wall
	m["jobs_per_s"] = float64(len(win.Subs)) / wall
	m["fresh_p50_ms"] = pct(fresh, 0.5)
	m["fresh_p90_ms"] = pct(fresh, 0.9)
	m["sim_seconds"] = simSeconds
	m["fabric_mb"] = float64(fabricBytes) / 1e6
	m["farm.hit_p50_ms"] = pct(hit, 0.5)
	m["farm.hit_p95_ms"] = pct(hit, 0.95)
	m["farm.queue_p50_ms"] = pct(queue, 0.5)
	m["farm.queue_p90_ms"] = pct(queue, 0.9)
	m["farm.sim_p50_ms"] = pct(sim, 0.5)
	m["farm.sim_p90_ms"] = pct(sim, 0.9)
	m["farm.http_overhead_p50_ms"] = pct(overhead, 0.5)
	m["farm.result_fetch_p50_ms"] = pct(fetch, 0.5)
	m["farm.worker_busy_frac"] = busy / (float64(n) * wall)
	for k, v := range c {
		m[k] = v
	}
	win.Host.record(m)

	if rep.Traced {
		m["bench.trace_overhead_frac"] = wall/untraced.Wall.Seconds() - 1
		if err := finishTrace(tr, opt, env, rep); err != nil {
			return failures, err
		}
	}
	return failures, nil
}

// finishTrace turns the traced run into the per-layer table: span self
// times, the probe suite, and the estimates and ratios that combine
// them with the counts already in rep.Metrics. Then it writes the
// Chrome trace.
func finishTrace(tr *tracer, opt runOptions, env environment, rep *childReport) error {
	m := rep.Metrics
	m["sim.seconds"], m["sim.fabric_mb"] = m["sim_seconds"], m["fabric_mb"]
	self := tr.selfSecondsByName()
	m["scenario.normalize_hash_s"] = self["scenario.normalize_hash"]
	m["scenario.build_s"] = self["scenario.build"]
	m["scenario.encode_s"] = self["scenario.encode"]
	m["apps.run_s"] = self["apps.run"]
	m["apps.reference_s"] = self["apps.reference"]
	m["bench.protocols_s"] = self["bench.protocols"]
	if m["apps.reference_s"] > 0 {
		m["apps.dsm_slowdown"] = m["apps.run_s"] / m["apps.reference_s"]
	}
	if m["dsm.diffs_created"] > 0 {
		m["dsm.diff_use_ratio"] = (m["dsm.diff_fetches"] + m["dsm.home_flushes"]) / m["dsm.diffs_created"]
	}
	for k, v := range runProbes() {
		m[k] = v
	}
	// Estimates: count x probe cost / time simulating. The engine's
	// switches are not visible through any public counter, so their
	// count is itself an estimate: the runtime's recorded scheduling
	// events of the pass, times the switches per event the probe
	// measured. It covers the whole pass, the inside of bench.Protocols
	// included. The page row's counts cover the scenarios only.
	m["engine.est_switches"] = m["host.sched_events"] * m["probe.switches_per_sched_event"]
	if simulating := m["apps.run_s"] + m["bench.protocols_s"]; simulating > 0 {
		m["engine.est_share"] = m["engine.est_switches"] * m["engine.switch_ns"] / 1e9 / simulating
	}
	if run := m["apps.run_s"]; run > 0 {
		makeNS := (m["page.make_sparse_ns"] + m["page.make_dense_ns"]) / 2
		applyNS := (m["page.apply_sparse_ns"] + m["page.apply_dense_ns"]) / 2
		pageNS := (m["dsm.twins_created"]+m["dsm.page_fetches"])*m["page.twin_ns"] +
			m["dsm.diffs_created"]*makeNS +
			(m["dsm.diff_fetches"]+m["dsm.home_flushes"])*applyNS
		m["page.est_share"] = pageNS / 1e9 / run
	}
	rep.TracePath = opt.TracePath
	return tr.write(opt.TracePath, env)
}
