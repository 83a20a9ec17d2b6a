package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nowomp/internal/dsm"
	"nowomp/internal/scenario"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile quoted must leave at least ten samples
	// beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{3, 0.5}, {12, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.90}, {168, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	sample := make([]float64, 168)
	for i := range sample {
		sample[i] = float64(168 - i) // 168..1, unsorted on purpose
	}
	s := summarize(sample)
	if s.N != 168 || s.Median != 84.5 || s.Min != 1 || s.Max != 168 {
		t.Errorf("summarize: %+v", s)
	}
	if s.HighPct != 0.90 || s.High != 152 {
		t.Errorf("summarize high percentile: p%g = %g, want p90 = 152 (16 samples beyond)", s.HighPct*100, s.High)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 9}); m != 3 {
		t.Errorf("median of an even sample = %g, want 3, the mean of the middle two", m)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := generateInputs(w, 1999, false), generateInputs(w, 1999, false)
		if !bytes.Equal(a.canonical(), b.canonical()) {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		c := generateInputs(w, 2000, false)
		if bytes.Equal(a.canonical(), c.canonical()) {
			t.Errorf("%s: seeds 1999 and 2000 generated the same inputs", w.Name)
		}
		if len(a.Specs) != len(c.Specs) || len(a.Order) != len(c.Order) || (a.Protocols == nil) != (c.Protocols == nil) {
			t.Errorf("%s: a different seed changed the amount of work: %d/%d specs, %d/%d submissions",
				w.Name, len(a.Specs), len(c.Specs), len(a.Order), len(c.Order))
		}
		for _, spec := range a.Specs {
			if _, err := spec.Normalize(); err != nil {
				t.Errorf("%s: generated spec does not normalize: %v", w.Name, err)
			}
		}
	}
	// farm-mix: every distinct scenario arrives at least once, and the
	// set of scenarios does not depend on the seed.
	w, _ := workloadByName("farm-mix")
	in := generateInputs(w, 7, false)
	seen := map[int]bool{}
	for _, i := range in.Order {
		seen[i] = true
	}
	if len(in.Order) != farmSubmissions || len(seen) != len(in.Specs) {
		t.Errorf("farm-mix: %d submissions over %d of %d scenarios", len(in.Order), len(seen), len(in.Specs))
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)}, // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(70)},
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(45)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(10), 4: ms(10), 5: ms(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// benchmarkJSON mirrors the keys of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", decl.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q is outside the unit alphabet", kind, n, u)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(decl.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the harness (2..8 allowed)", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.Name, "")
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(decl.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in the harness (at most 16)", len(decl.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range endToEnd {
		checkName("end-to-end metric", m.Name, m.Unit)
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range exactEndToEnd {
		checkName("exact end-to-end metric", m.Name, m.Unit)
	}

	if len(decl.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d in the harness (at most 128)", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName("per-layer metric", m.Name, m.Unit)
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, d, m)
		}
	}
}

// quickReport runs one workload at -quick scale in this process, with
// the probe suite cut down to a smoke test.
func quickReport(t *testing.T, workload string, traced bool) childReport {
	t.Helper()
	probeEffort = 0.01
	t.Cleanup(func() { probeEffort = 1 })
	opt := runOptions{Workload: workload, Seed: 1999, Quick: true}
	if traced {
		opt.TracePath = filepath.Join(t.TempDir(), "trace.json")
	}
	rep := runWorkload(opt, readEnvironment(1999, true))
	if rep.Error != "" {
		t.Fatalf("%s: %s", workload, rep.Error)
	}
	return rep
}

// TestEveryMetricIsEmittedAndDeclared runs a batch workload and the
// farm traced: every name the harness emits must be declared, and
// every declared per-layer name must be emitted by one of them
// (bench.* comes from sync-3proto only and is checked by name).
func TestEveryMetricIsEmittedAndDeclared(t *testing.T) {
	declared := map[string]bool{"probe.working_set_mb": true, "probe.llc_mb": true, "probe.switches_per_sched_event": true}
	for _, list := range [][]metric{endToEnd, exactEndToEnd, perLayer} {
		for _, m := range list {
			declared[m.Name] = true
		}
	}
	emitted := map[string]bool{"bench.protocols_s": true, "bench.rows": true}
	for _, w := range []string{"adaptive-home", "farm-mix"} {
		rep := quickReport(t, w, true)
		if rep.Failed != 0 {
			t.Errorf("%s: %d of %d attempts failed: %+v", w, rep.Failed, rep.Attempted, rep.Failures)
		}
		for name := range rep.Metrics {
			emitted[name] = true
			if !declared[name] {
				t.Errorf("%s emits %q, which no metric list declares", w, name)
			}
		}
		data, err := os.ReadFile(rep.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Ph   string
				Args map[string]any
			}
			OtherData environment
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: the trace does not load: %v", w, err)
		}
		if len(doc.TraceEvents) == 0 || doc.OtherData.Seed != 1999 || doc.OtherData.GoVersion == "" {
			t.Errorf("%s: trace has %d events, environment %+v", w, len(doc.TraceEvents), doc.OtherData)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" || ev.Args["workload"] != w || ev.Args["span_id"] == nil || ev.Args["parent_span_id"] == nil {
				t.Fatalf("%s: span %q lacks workload or span ids: %+v", w, ev.Name, ev.Args)
			}
			if _, ok := ev.Args["hash"]; !ok {
				t.Fatalf("%s: span %q carries no scenario hash field", w, ev.Name)
			}
		}
	}
	for _, m := range perLayer {
		if !emitted[m.Name] {
			t.Errorf("per-layer metric %q is declared but never emitted", m.Name)
		}
	}
}

// TestOutputChecksBite proves that a wrong result and a panic both
// make failed_frac non-zero and take the non-zero exit path.
func TestOutputChecksBite(t *testing.T) {
	clean := quickReport(t, "table1-tmk", false)
	if clean.Failed != 0 || clean.Metrics["failed_frac"] != 0 || exitCode(true, clean) != 0 {
		t.Fatalf("unmutated run failed: %+v", clean.Failures)
	}
	for _, m := range endToEnd {
		if !(clean.Metrics[m.Name] > 0) {
			t.Errorf("end-to-end metric %s = %v on an untraced run, want a positive number", m.Name, clean.Metrics[m.Name])
		}
	}
	for _, mutation := range []string{"drop-newest-diff", "fault-panic"} {
		restore, err := dsm.InjectCoherenceMutation(mutation)
		if err != nil {
			t.Fatal(err)
		}
		rep := quickReport(t, "table1-tmk", false)
		restore()
		if rep.Failed == 0 || !(rep.Metrics["failed_frac"] > 0) {
			t.Errorf("%s: failed %d of %d, failed_frac %v: the output check did not bite",
				mutation, rep.Failed, rep.Attempted, rep.Metrics["failed_frac"])
		}
		if exitCode(true, rep) == 0 {
			t.Errorf("%s: exit code 0 with %d failures", mutation, rep.Failed)
		}
		var line bytes.Buffer
		printDriverLine(&line, rep)
		if !strings.Contains(line.String(), `"correct":false`) {
			t.Errorf("%s: driver line reports %s", mutation, line.String())
		}
	}
}

// TestStepwiseMatchesRun holds runScenario's result assembly to
// scenario.Spec.Run's, byte for byte.
func TestStepwiseMatchesRun(t *testing.T) {
	for _, spec := range []scenario.Spec{
		{Kernel: "jacobi", Scale: 0.05, Procs: 4, Hosts: 6, Verify: true},
		{Kernel: "gauss", Scale: 0.05, Procs: 3, Hosts: 5, Protocol: "hlrc", Machines: "1=0.5"},
		{Kernel: "mergesort", Scale: 0.05, Procs: 4, Hosts: 6, Protocol: "hybrid"},
		{Kernel: "jacobi", Scale: 0.1, Procs: 4, Hosts: 6, Adaptive: true, Schedule: "0.05:leave:3,0.12:join:3"},
	} {
		res, err := spec.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		op := runScenario(spec, nil, 0, 0)
		if op.Err != nil {
			t.Fatalf("%s: %v", op.Name, op.Err)
		}
		if !bytes.Equal(op.Body, want) {
			t.Errorf("%s: stepwise result differs from Spec.Run:\n%s\nwant:\n%s", op.Name, op.Body, want)
		}
		if box := runBlackBox(spec); !bytes.Equal(box.Body, want) || box.Messages != op.Messages {
			t.Errorf("%s: black-box run disagrees", op.Name)
		}
	}
}
