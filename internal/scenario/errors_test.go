package scenario

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"nowomp/internal/dsm"
)

// Error-path contract: Normalize's rejections carry stable messages.
// Tools (the farm's 400 responses, the fuzz harness's shrink filter,
// CLI diagnostics) key off these strings, so a wording change is an
// API change — update this table deliberately, not incidentally.
func TestNormalizeErrorMessages(t *testing.T) {
	base := Spec{Kernel: "jacobi", Scale: 0.05, Procs: 2, Hosts: 4}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown kernel", func(s *Spec) { s.Kernel = "sor" },
			`scenario: unknown kernel "sor"`},
		{"negative scale", func(s *Spec) { s.Scale = -0.5 },
			"scenario: scale -0.5 out of range (0, 4]"},
		{"oversized scale", func(s *Spec) { s.Scale = 5 },
			"scenario: scale 5 out of range (0, 4]"},
		{"NaN scale", func(s *Spec) { s.Scale = math.NaN() },
			"scenario: scale NaN out of range (0, 4]"},
		{"negative procs", func(s *Spec) { s.Procs = -1 },
			"scenario: procs -1 must be at least 1"},
		{"team exceeds pool", func(s *Spec) { s.Procs = 6; s.Hosts = 4 },
			"scenario: hosts 4 must cover the team of 6"},
		{"pool cap", func(s *Spec) { s.Hosts = MaxHosts + 1 },
			"scenario: hosts 65 exceeds the pool cap 64"},
		{"negative grace", func(s *Spec) { s.Grace = -1 },
			"scenario: grace -1 must be a non-negative finite number"},
		{"infinite grace", func(s *Spec) { s.Grace = math.Inf(1) },
			"scenario: grace +Inf must be a non-negative finite number"},
		{"NaN grace", func(s *Spec) { s.Grace = math.NaN() },
			"scenario: grace NaN must be a non-negative finite number"},
		{"policy not adaptive", func(s *Spec) { s.Policy = "high=1.5,low=0.5"; s.Loads = "1=2@0" },
			"scenario: a policy requires adaptive"},
		{"policy without loads", func(s *Spec) { s.Adaptive = true; s.Policy = "high=1.5,low=0.5" },
			"scenario: a policy needs load traces to watch"},
		{"schedule not adaptive", func(s *Spec) { s.Schedule = "0.1:leave:1" },
			"scenario: a schedule requires adaptive"},
		{"schedule host outside pool", func(s *Spec) { s.Adaptive = true; s.Schedule = "0.1:join:4" },
			"scenario: schedule event host 4 not in pool [0,4)"},
		{"schedule leaves the master", func(s *Spec) { s.Adaptive = true; s.Schedule = "0.1:leave:0" },
			"scenario: schedule cannot leave host 0 (the master)"},
		{"speed factor not finite", func(s *Spec) { s.Machines = "1=Inf" },
			`machine: speed "1=Inf": factor "Inf" must be a positive finite number`},
		{"speed factor NaN", func(s *Spec) { s.Machines = "1=NaN" },
			`machine: speed "1=NaN": factor "NaN" must be a positive finite number`},
		{"load value NaN", func(s *Spec) { s.Loads = "1=NaN@0" },
			`machine: load "1=NaN@0": step "NaN@0": load "NaN" must be a non-negative finite number`},
		{"load time infinite", func(s *Spec) { s.Loads = "1=2@+Inf" },
			`machine: load "1=2@+Inf": step "2@+Inf": time "+Inf" must be a non-negative finite number`},
		{"link factor NaN", func(s *Spec) { s.Links = "0-1=lat:NaN" },
			`machine: link "0-1=lat:NaN": option "lat:NaN": factor must be a positive finite number`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mut(&s)
			_, err := s.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", s)
			}
			if err.Error() != tc.want {
				t.Errorf("error message drifted:\n  got:  %s\n  want: %s", err, tc.want)
			}
		})
	}
}

// TestNormalizeAcceptsBoundaries pins the accepting side of the new
// limits: the pool cap itself is valid, as are zero grace and the
// scale range endpoints.
func TestNormalizeAcceptsBoundaries(t *testing.T) {
	for name, s := range map[string]Spec{
		"pool cap exactly": {Kernel: "jacobi", Scale: 0.05, Procs: 1, Hosts: MaxHosts},
		"scale upper edge": {Kernel: "jacobi", Scale: 4, Procs: 1, Hosts: 1},
		"master may join":  {Kernel: "jacobi", Scale: 0.05, Procs: 1, Hosts: 2, Adaptive: true, Schedule: "0.1:join:1"},
	} {
		if _, err := s.Normalize(); err != nil {
			t.Errorf("%s: Normalize rejected %+v: %v", name, s, err)
		}
	}
}

// TestRunCheckedRecovers pins the panic barrier: RunChecked must turn
// a mid-run panic into an error (callers like the farm worker and the
// fuzz oracles depend on it) while passing healthy results through
// untouched.
func TestRunCheckedRecovers(t *testing.T) {
	s := Spec{Kernel: "jacobi", Scale: 0.02, Procs: 2, Hosts: 2}
	res, err := s.RunChecked()
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	direct, err2 := s.Run()
	if err2 != nil {
		t.Fatal(err2)
	}
	if res != direct {
		t.Fatalf("RunChecked result differs from Run:\n%+v\nvs\n%+v", res, direct)
	}
}

// TestRunCheckedReleasesAbandonedProcs: the runtime behind a recovered
// panic is dead, but it must not linger — the engine stops the procs
// still parked when one of them dies, so a farm worker that carries on
// after a poisoned job keeps no goroutine (and none of the cluster
// pages those procs' closures capture) per failure.
func TestRunCheckedReleasesAbandonedProcs(t *testing.T) {
	restore, err := dsm.InjectCoherenceMutation("fault-panic")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	s := Spec{Kernel: "jacobi", Scale: 0.03, Procs: 4, Hosts: 4}
	// The first run warms the engine's idle coroutines (a proc that
	// exits leaves its coroutine for reuse); from then on a failed run
	// must not add a goroutine.
	base := 0
	for i := 0; i < 4; i++ {
		if _, err := s.RunChecked(); err == nil || !strings.Contains(err.Error(), "injected fault-panic") {
			t.Fatalf("run %d under fault-panic: err = %v, want the recovered panic", i, err)
		}
		if i == 0 {
			base = runtime.NumGoroutine()
		}
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after four recovered panics, %d after the first: abandoned procs leaked", got, base)
	}
}
