package machine

import (
	"strings"
	"testing"

	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

func TestTraceAt(t *testing.T) {
	tr, err := NewTrace(Step{At: 5, Load: 2}, Step{At: 15, Load: 0.5}, Step{At: 20, Load: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   simtime.Seconds
		want float64
	}{
		{0, 0}, {4.999, 0}, {5, 2}, {14.9, 2}, {15, 0.5}, {19, 0.5}, {20, 0}, {1000, 0},
	}
	for _, c := range cases {
		if got := tr.At(c.at); got != c.want {
			t.Errorf("At(%v) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(Step{At: 5, Load: -1}); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := NewTrace(Step{At: -1, Load: 1}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := NewTrace(Step{At: 5, Load: 1}, Step{At: 5, Load: 2}); err == nil {
		t.Error("non-ascending times accepted")
	}
}

func TestComputeIdentityFastPath(t *testing.T) {
	var nilModel *Model
	for _, w := range []simtime.Seconds{0, 1e-6, 0.125, 3.7} {
		if got := nilModel.Compute(0, 10, w); got != w {
			t.Errorf("nil model Compute(%v) = %v", w, got)
		}
	}
	m := New(3)
	if got := m.Compute(1, 2, 0.125); got != 0.125 {
		t.Errorf("unit model Compute = %v, want exact 0.125", got)
	}
}

func TestComputeSpeedScaling(t *testing.T) {
	m := New(2)
	m.SetSpeed(1, 2)
	if got := m.Compute(1, 0, 1); got != 0.5 {
		t.Errorf("double speed: Compute(1s) = %v, want 0.5s", got)
	}
	m.SetSpeed(1, 0.5)
	if got := m.Compute(1, 0, 1); got != 2 {
		t.Errorf("half speed: Compute(1s) = %v, want 2s", got)
	}
}

func TestComputeIntegratesTrace(t *testing.T) {
	// Load 1.0 (slowdown 2x) during [10, 12): 1.5s of work started at
	// t=9 does 1s in [9,10), then 1s wall per 0.5s work in [10,12) —
	// 0.5s of work takes 1s — leaving 0 work at t=12. Elapsed 3s... no:
	// work 1.5 = 1.0 (before) + 0.5 (during, costing 1.0 wall).
	m := New(1)
	tr, _ := NewTrace(Step{At: 10, Load: 1}, Step{At: 12, Load: 0})
	m.SetLoad(0, tr)
	if got, want := m.Compute(0, 9, 1.5), simtime.Seconds(2); got != want {
		t.Errorf("Compute across spike = %v, want %v", got, want)
	}
	// Work that outlives the spike: 4s of work at t=9: 1s before the
	// spike, 1s of work (2s wall) inside it, 2s after. Total 5s.
	if got, want := m.Compute(0, 9, 4), simtime.Seconds(5); got != want {
		t.Errorf("Compute past spike = %v, want %v", got, want)
	}
	// Started after the trace's last step: plain 1x.
	if got, want := m.Compute(0, 20, 4), simtime.Seconds(4); got != want {
		t.Errorf("Compute after trace = %v, want %v", got, want)
	}
	// Entirely inside the spike.
	if got, want := m.Compute(0, 10, 0.5), simtime.Seconds(1); got != want {
		t.Errorf("Compute inside spike = %v, want %v", got, want)
	}
}

func TestComputeLoadAndSpeedCombine(t *testing.T) {
	m := New(1)
	m.SetSpeed(0, 2)
	tr, _ := NewTrace(Step{At: 0, Load: 3})
	m.SetLoad(0, tr)
	// Slowdown (1+3)/2 = 2.
	if got, want := m.Compute(0, 0, 1), simtime.Seconds(2); got != want {
		t.Errorf("Compute = %v, want %v", got, want)
	}
}

func TestParseSpeedsRoundTrip(t *testing.T) {
	m := New(8)
	spec := "4=0.5,5=0.5,7=2"
	if err := ParseSpeeds(m, spec); err != nil {
		t.Fatal(err)
	}
	if m.Speed(4) != 0.5 || m.Speed(5) != 0.5 || m.Speed(7) != 2 || m.Speed(0) != 1 {
		t.Fatalf("speeds not applied: %v", m.speeds)
	}
	out := FormatSpeeds(m)
	m2 := New(8)
	if err := ParseSpeeds(m2, out); err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	for i := 0; i < 8; i++ {
		if m.Speed(simnet.MachineID(i)) != m2.Speed(simnet.MachineID(i)) {
			t.Fatalf("round trip changed speed of machine %d", i)
		}
	}
	if FormatSpeeds(New(3)) != "" {
		t.Error("all-default model must format to the empty string")
	}
}

func TestParseSpeedsErrors(t *testing.T) {
	m := New(4)
	for _, spec := range []string{
		"nope", "9=1", "-1=1", "1=0", "1=-2", "1=x", "=1", "1=",
	} {
		if err := ParseSpeeds(m, spec); err == nil {
			t.Errorf("ParseSpeeds(%q) accepted", spec)
		}
	}
	if err := ParseSpeeds(m, ""); err != nil {
		t.Errorf("empty spec must be a no-op, got %v", err)
	}
}

func TestParseLoadsRoundTrip(t *testing.T) {
	m := New(8)
	spec := "3=2@5,0@15;6=0.5@0"
	if err := ParseLoads(m, spec); err != nil {
		t.Fatal(err)
	}
	if got := m.LoadAt(3, 7); got != 2 {
		t.Errorf("machine 3 load at t=7 is %g, want 2", got)
	}
	if got := m.LoadAt(3, 16); got != 0 {
		t.Errorf("machine 3 load at t=16 is %g, want 0", got)
	}
	if got := m.LoadAt(6, 100); got != 0.5 {
		t.Errorf("machine 6 load at t=100 is %g, want 0.5", got)
	}
	out := FormatLoads(m)
	m2 := New(8)
	if err := ParseLoads(m2, out); err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if FormatLoads(m2) != out {
		t.Fatalf("round trip not canonical: %q vs %q", FormatLoads(m2), out)
	}
	if FormatLoads(New(3)) != "" {
		t.Error("no-load model must format to the empty string")
	}
}

func TestParseLoadsErrors(t *testing.T) {
	m := New(4)
	for _, spec := range []string{
		"x", "9=1@0", "1=1", "1=x@0", "1=1@x", "1=-1@0", "1=1@-1",
		"1=1@5,2@5", "1=1@5,2@3",
	} {
		if err := ParseLoads(m, spec); err == nil {
			t.Errorf("ParseLoads(%q) accepted", spec)
		}
	}
}

func TestParseLinks(t *testing.T) {
	f := simnet.New(8)
	if err := ParseLinks(f, "0-7=lat:4,bw:0.25;2-3=bw:0.5"); err != nil {
		t.Fatal(err)
	}
	if got := f.LatencyScale(0, 7); got != 4 {
		t.Errorf("lat scale 0->7 = %g, want 4", got)
	}
	if got := f.LatencyScale(7, 0); got != 4 {
		t.Errorf("lat scale 7->0 = %g, want 4 (duplex)", got)
	}
	if got := f.BandwidthScale(2, 3); got != 0.5 {
		t.Errorf("bw scale 2->3 = %g, want 0.5", got)
	}
	if got := f.LatencyScale(2, 3); got != 1 {
		t.Errorf("lat scale 2->3 = %g, want default 1", got)
	}
	for _, spec := range []string{
		"0-0=lat:2", "0=lat:2", "0-9=lat:2", "0-1=zap:2", "0-1=lat:0", "0-1=lat:-1", "0-1=lat",
	} {
		if err := ParseLinks(simnet.New(8), spec); err == nil {
			t.Errorf("ParseLinks(%q) accepted", spec)
		}
	}
	if err := ParseLinks(f, ""); err != nil {
		t.Errorf("empty spec must be a no-op, got %v", err)
	}
}

func TestParseErrorsMentionContext(t *testing.T) {
	m := New(4)
	err := ParseLoads(m, "1=2@5,1@3")
	if err == nil || !strings.Contains(err.Error(), "ascend") {
		t.Errorf("descending step error unhelpful: %v", err)
	}
}
