package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNormalizeDefaultsExplicit(t *testing.T) {
	norm, err := Spec{Kernel: "jacobi", Scale: 0.05}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Procs != DefaultProcs || norm.Hosts != DefaultHosts {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	if norm.Protocol != "tmk" {
		t.Fatalf("protocol default = %q, want tmk", norm.Protocol)
	}
	if norm.Grace != 3 {
		t.Fatalf("grace default = %g, want 3", norm.Grace)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if again != norm {
		t.Fatalf("Normalize not idempotent: %+v vs %+v", again, norm)
	}
}

func TestNormalizeCanonicalizesSubSpecs(t *testing.T) {
	s := Spec{
		Kernel: "jacobi", Scale: 0.05, Procs: 4, Hosts: 8,
		Machines: " 5=2 , 2=0.5 ",
		Loads:    " 3=2@5,0@15 ; 1=0.5@0 ",
		Links:    " 0-7=bw:0.25,lat:4 ",
		Adaptive: true,
		Schedule: " 6:leave:3 , 9:join:3 ",
		Policy:   " high=1.5 , low=0.25 , dwell=2 ",
	}
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Machines != "2=0.5,5=2" {
		t.Errorf("machines = %q", norm.Machines)
	}
	if norm.Links != "0-7=lat:4,bw:0.25" {
		t.Errorf("links = %q", norm.Links)
	}
	// Sub-spec item order and whitespace must not change the hash.
	reordered := s
	reordered.Machines = "2=0.5,5=2"
	reordered.Loads = "1=0.5@0;3=2@5,0@15"
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := reordered.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash changed across sub-spec reordering: %s vs %s", h1, h2)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := map[string]Spec{
		"unknown kernel":        {Kernel: "nope"},
		"negative scale":        {Kernel: "jacobi", Scale: -1},
		"team exceeds pool":     {Kernel: "jacobi", Scale: 0.05, Procs: 8, Hosts: 4},
		"schedule not adaptive": {Kernel: "jacobi", Scale: 0.05, Schedule: "5:leave:3"},
		"policy without loads":  {Kernel: "jacobi", Scale: 0.05, Adaptive: true, Policy: "high=1.5,low=0.25"},
		"bad machines":          {Kernel: "jacobi", Scale: 0.05, Machines: "99=2"},
		"bad protocol":          {Kernel: "jacobi", Scale: 0.05, Protocol: "mesi"},
	}
	for name, s := range cases {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted %+v", name, s)
		}
	}
}

func TestHashStableAcrossJSONLayout(t *testing.T) {
	a := []byte(`{"kernel":"nbf","scale":0.05,"procs":4,"hosts":6,"adaptive":false,"grace":0,"protocol":"","machines":"","loads":"","links":"","policy":"","schedule":"","verify":true}`)
	b := []byte("{\n\t\"verify\": true,\n\t\"hosts\": 6,\n\t\"procs\": 4,\n\t\"scale\": 0.05,\n\t\"kernel\": \"nbf\"\n}")
	sa, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := sa.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := sb.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("hash differs across JSON layout: %s vs %s", ha, hb)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"kernel":"jacobi","scael":0.1}`)); err == nil {
		t.Fatal("Decode accepted a typoed field")
	}
}

// A body is one spec: whatever follows the object, short of whitespace,
// is not silently dropped.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"kernel":"jacobi"} {"kernel":"gauss"} junk`,
		`{"kernel":"jacobi"}{"kernel":"gauss"}`,
		`{"kernel":"jacobi"} junk`,
		`{"kernel":"jacobi"}]`,
		`{"kernel":"jacobi"} 0`,
	} {
		if s, err := Decode([]byte(body)); err == nil {
			t.Errorf("Decode(%s) = %+v, want an error", body, s)
		}
	}
	s, err := Decode([]byte("  {\"kernel\":\"jacobi\"} \n\t\r\n"))
	if err != nil || s.Kernel != "jacobi" {
		t.Errorf("Decode with surrounding whitespace = (%+v, %v), want jacobi", s, err)
	}
}

func TestRunDeterministicAndVerified(t *testing.T) {
	s := Spec{Kernel: "jacobi", Scale: 0.03, Procs: 4, Hosts: 6, Verify: true}
	r1, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-run not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
	if !r1.Verified || r1.Seconds <= 0 || r1.Bytes <= 0 {
		t.Fatalf("implausible result: %+v", r1)
	}
	// The stored hash must match the spec's content address.
	want, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hash != want {
		t.Fatalf("result hash %s, spec hash %s", r1.Hash, want)
	}
}

func TestRunAppliesScheduleAndPolicy(t *testing.T) {
	s := Spec{
		Kernel: "jacobi", Scale: 0.05, Procs: 4, Hosts: 6,
		Adaptive: true, Schedule: "0.05:leave:3",
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Adaptations == 0 || r.TeamFinal != 3 {
		t.Fatalf("schedule had no effect: %+v", r)
	}
}

// TestDuplicateAdaptEventsApplyOnce runs two schedules that name one
// host twice at one adaptation point: two leaves of host 1 (one with its
// own grace) and two joins of host 2. Each applies one event and the run
// completes; both once panicked in dsm (a normal leave of an inactive
// host, a join of an active one). Both results match the sequential
// reference.
func TestDuplicateAdaptEventsApplyOnce(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		team int
	}{
		{Spec{Kernel: "jacobi", Scale: 0.08, Procs: 2, Hosts: 2, Adaptive: true, Grace: 3, Protocol: "tmk",
			Schedule: "0.4:leave:1:grace=0.5,0.4:leave:1", Verify: true}, 1},
		{Spec{Kernel: "jacobi", Scale: 0.3, Procs: 2, Hosts: 3, Adaptive: true,
			Schedule: "0.1:join:2,0.1:join:2", Verify: true}, 3},
	} {
		r, err := c.spec.RunChecked()
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Schedule, err)
		}
		if r.Adaptations != 1 || r.TeamFinal != c.team {
			t.Errorf("%s: %d events applied, final team %d; want 1 and %d",
				c.spec.Schedule, r.Adaptations, r.TeamFinal, c.team)
		}
	}
}

func TestCanonicalIsValidJSONRoundTrip(t *testing.T) {
	s := Spec{Kernel: "gauss", Scale: 0.05, Procs: 2, Hosts: 4, Protocol: "hlrc"}
	data, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("canonical not a fixed point:\n%s\nvs\n%s", data, data2)
	}
}
