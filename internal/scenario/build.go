package scenario

import (
	"encoding/json"
	"fmt"
	"sync"

	"nowomp/internal/adapt"
	"nowomp/internal/apps"
	"nowomp/internal/omp"
)

// The build layer turns a Spec into its omp.Config and, through Start
// and Execute, all the way into a Result. Every cmd, the farm and the bench
// cells build through it instead of re-parsing flag strings.

// Runner resolves the spec's kernel.
func (s Spec) Runner() (apps.Runner, error) {
	r, ok := apps.RunnerByName(s.Kernel)
	if !ok {
		return apps.Runner{}, fmt.Errorf("scenario: unknown kernel %q", s.Kernel)
	}
	return r, nil
}

// Config is the omp.Config the spec describes, for the one caller that
// needs it rather than a started runtime: a restore rebuilds the
// runtime from its checkpoint.
func (s Spec) Config() (omp.Config, error) {
	p, err := s.parse()
	return p.cfg, err
}

// Start is the one door from a spec to a runtime; Build, Execute and
// through them every tool, the farm and every bench cell come through
// it. It parses the spec — the only normalization on the path, and the
// only parse of its machines, loads, schedule and policy — assembles the
// omp.Config, lets mod adjust it, constructs the runtime, submits the
// schedule's events and applies the load policy. It returns the
// canonical spec, the ready-to-run runtime and the events the policy
// derived (nil without a policy).
//
// mod (nil for none) is for what a canonical spec cannot say: the
// ablations' Reassign and LeaveStrategy, which are not scenario axes,
// and an explicit all-1.0 machine model with unit link scales, which
// FormatSpeeds and FormatLinks canonicalise to the empty string.
func (s Spec) Start(mod func(*omp.Config)) (Spec, *omp.Runtime, []adapt.Event, error) {
	p, err := s.parse()
	if err != nil {
		return Spec{}, nil, nil, err
	}
	if mod != nil {
		mod(&p.cfg)
	}
	rt, err := omp.New(p.cfg)
	if err != nil {
		return Spec{}, nil, nil, err
	}
	for _, ev := range p.events {
		if err := rt.Submit(ev); err != nil {
			return Spec{}, nil, nil, err
		}
	}
	var derived []adapt.Event
	if p.norm.Policy != "" {
		if derived, err = rt.ApplyLoadPolicy(p.policy); err != nil {
			return Spec{}, nil, nil, err
		}
	}
	return p.norm, rt, derived, nil
}

// Build is Start with no config hook, for callers that drive the
// runtime themselves.
func (s Spec) Build() (*omp.Runtime, []adapt.Event, error) {
	_, rt, derived, err := s.Start(nil)
	return rt, derived, err
}

// Execute is the execution primitive Run, nowomp-run and the bench
// cells share: Start the runtime, install hook (nil for none) as its
// fork hook, run the registered kernel and, when the spec asks, verify
// the checksum against the sequential reference. It returns the
// canonical spec, the kernel's measurements, the finished runtime and
// the policy-derived events.
func (s Spec) Execute(mod func(*omp.Config), hook func(*omp.Runtime)) (Spec, apps.Result, *omp.Runtime, []adapt.Event, error) {
	norm, rt, derived, err := s.Start(mod)
	if err != nil {
		return Spec{}, apps.Result{}, nil, nil, err
	}
	if hook != nil {
		rt.SetForkHook(hook)
	}
	runner, err := norm.Runner()
	if err != nil {
		return Spec{}, apps.Result{}, nil, nil, err
	}
	res, err := runner.Run(rt, norm.Scale)
	if err != nil {
		return Spec{}, apps.Result{}, nil, nil, err
	}
	if norm.Verify {
		if err := verify(runner, norm.Scale, res.Checksum); err != nil {
			return Spec{}, apps.Result{}, nil, nil, err
		}
	}
	return norm, res, rt, derived, nil
}

// verify holds a run's checksum to the sequential reference of its
// kernel at its scale, looked up in references.
func verify(runner apps.Runner, scale, checksum float64) error {
	if want := references.get(runner, scale); checksum != want {
		return fmt.Errorf("scenario: verification failed: checksum %g, reference %g", checksum, want)
	}
	return nil
}

// references memoises sequential reference checksums. A reference is
// a function of the kernel and the scale alone (Runner.Reference reads
// nothing else), and verified specs that differ in procs, protocol,
// machines or schedule share it, so it is computed once for all of
// them; every run still compares its own checksum. The farm runs
// verified runs side by side, so the memo is locked, but not while a
// reference is computed: two runs that miss together both compute it,
// which wastes time and nothing else. It holds at most
// referenceMemoCap entries and is cleared when full.
var references = referenceMemo{m: map[referenceKey]float64{}}

const referenceMemoCap = 64

type referenceKey struct {
	kernel string
	scale  float64
}

type referenceMemo struct {
	mu sync.Mutex
	m  map[referenceKey]float64
}

// get returns runner's reference checksum at scale, computing and
// storing it on a miss.
func (r *referenceMemo) get(runner apps.Runner, scale float64) float64 {
	key := referenceKey{runner.Name, scale}
	r.mu.Lock()
	want, ok := r.m[key]
	r.mu.Unlock()
	if ok {
		return want
	}
	want = runner.Reference(scale)
	r.mu.Lock()
	if len(r.m) >= referenceMemoCap {
		clear(r.m)
	}
	r.m[key] = want
	r.mu.Unlock()
	return want
}

// Result is the outcome of one scenario run. Its leading fields —
// scenario key, seconds, bytes, messages — mirror the bench report's
// schema-2 record shape, so a farm result body reads like one more
// bench cell; the rest carries the full measurement. Encode renders it
// deterministically: identical specs produce byte-identical encodings
// at any parallelism level, which is the property the farm's
// content-addressed store serves from.
type Result struct {
	// Scenario is the human-readable cell key, "farm/<kernel>/<procs>p".
	Scenario string `json:"scenario"`
	// Seconds is the virtual (simulated) runtime.
	Seconds float64 `json:"seconds"`
	// Bytes and Messages are the fabric traffic.
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
	// Hash is the spec's content address; Spec its canonical form.
	Hash string `json:"hash"`
	Spec Spec   `json:"spec"`
	// Pages and Diffs are full-page transfers and diffs fetched;
	// SharedBytes the allocated shared memory.
	Pages       int64 `json:"pages"`
	Diffs       int64 `json:"diffs"`
	SharedBytes int   `json:"shared_bytes"`
	// Checksum is the kernel's result checksum; Verified is set when
	// the spec asked for verification (always true then — a mismatch
	// fails the run instead).
	Checksum float64 `json:"checksum"`
	Verified bool    `json:"verified"`
	// TeamFinal and Adaptations summarise the adapt activity.
	TeamFinal   int `json:"team_final"`
	Adaptations int `json:"adaptations"`
}

// Encode renders the result as canonical JSON bytes (trailing
// newline), the exact body the farm stores and serves.
func (r Result) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode result: %w", err)
	}
	return append(data, '\n'), nil
}

// RunChecked is Run behind a panic barrier: a panic anywhere in the
// simulation — a word-race check firing, the engine's deadlock
// diagnostic, a protocol invariant violation — comes back as an error
// instead of unwinding the caller. The fuzzer's oracles use it to turn
// "no panics on race-free kernels" into a checkable verdict; the farm's
// workers run jobs through a Workspace's RunChecked, the same barrier,
// so one poisoned scenario fails one job rather than the whole service.
// The runtime behind a recovered panic is abandoned, never reused.
func (s Spec) RunChecked() (Result, error) {
	return (*Workspace)(nil).RunChecked(s)
}

// Run executes the scenario end to end — Execute, then the Result
// assembled around the spec's content address. The engine makes the
// outcome a pure function of the spec, so concurrent Runs of different
// (or identical) specs never interfere. It is a Workspace's Run without
// a workspace: the run's cluster allocates its own page buffers.
func (s Spec) Run() (Result, error) {
	return (*Workspace)(nil).Run(s)
}
