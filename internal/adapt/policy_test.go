package adapt

import (
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/simtime"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	p, err := ParsePolicy("high=1.5,low=0.25,dwell=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.High != 1.5 || p.Low != 0.25 || p.Dwell != 2 {
		t.Fatalf("parsed %+v", p)
	}
	again, err := ParsePolicy(FormatPolicy(p))
	if err != nil {
		t.Fatalf("re-parse %q: %v", FormatPolicy(p), err)
	}
	if again != p {
		t.Errorf("round trip changed policy: %+v vs %+v", again, p)
	}
	// Dwell omitted: parses to the zero (defaulted-at-use) dwell and
	// still round-trips.
	p2, err := ParsePolicy("high=1,low=0")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Dwell != 0 {
		t.Errorf("omitted dwell parsed as %v", p2.Dwell)
	}
	again2, err := ParsePolicy(FormatPolicy(p2))
	if err != nil || again2 != p2 {
		t.Errorf("zero-dwell round trip: %+v vs %+v (%v)", again2, p2, err)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, spec := range []string{
		"nope", "high=x", "high=1,low=1", "high=1,low=2", "high=0,low=0",
		"high=1,low=-1", "high=1,low=0,dwell=0", "high=1,low=0,dwell=-1",
		"high=1,low=0,wibble=3",
	} {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", spec)
		}
	}
	p, err := ParsePolicy("")
	if err != nil {
		t.Errorf("empty policy spec must parse (as the zero policy), got %v", err)
	}
	if p != (LoadPolicy{}) {
		t.Errorf("empty spec gave %+v", p)
	}
}

// allHosts is the initial team used by the derive tests: every host
// the traces mention starts in the team.
var allHosts = []dsm.HostID{0, 1, 2, 3, 4, 5}

func mustTrace(t *testing.T, steps ...machine.Step) machine.Trace {
	t.Helper()
	tr, err := machine.NewTrace(steps...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPolicyDeriveLeaveAndRejoin(t *testing.T) {
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 2}
	traces := map[dsm.HostID]machine.Trace{
		3: mustTrace(t, machine.Step{At: 5, Load: 2}, machine.Step{At: 15, Load: 0}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindLeave, Host: 3, At: 7},
		{Kind: KindJoin, Host: 3, At: 17},
	}
	if len(events) != len(want) {
		t.Fatalf("derived %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestPolicyDwellFiltersFlashLoad(t *testing.T) {
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 2}
	traces := map[dsm.HostID]machine.Trace{
		// 1.5 s spike: shorter than the 2 s dwell, must not fire.
		2: mustTrace(t, machine.Step{At: 4, Load: 3}, machine.Step{At: 5.5, Load: 0}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("flash load fired %v", events)
	}
}

func TestPolicyHysteresisHoldsInBand(t *testing.T) {
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 1}
	traces := map[dsm.HostID]machine.Trace{
		// After the leave the load settles inside the (Low, High) band:
		// the hysteresis must hold the machine out, no rejoin.
		4: mustTrace(t, machine.Step{At: 2, Load: 2}, machine.Step{At: 10, Load: 1}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != KindLeave {
		t.Errorf("want a single leave, got %v", events)
	}
}

func TestPolicyRunSpansSegments(t *testing.T) {
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 2}
	traces := map[dsm.HostID]machine.Trace{
		// Two back-to-back qualifying segments form one run: the dwell
		// counts from the run's start at t=5, not from the second step.
		1: mustTrace(t, machine.Step{At: 5, Load: 2}, machine.Step{At: 6, Load: 3}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].At != 7 || events[0].Kind != KindLeave {
		t.Errorf("want one leave at t=7, got %v", events)
	}
}

func TestPolicySkipsMaster(t *testing.T) {
	p := LoadPolicy{High: 1, Low: 0.5, Dwell: 1}
	traces := map[dsm.HostID]machine.Trace{
		0: mustTrace(t, machine.Step{At: 0, Load: 5}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("master must never leave, got %v", events)
	}
}

func TestPolicyDeriveSortedAcrossHosts(t *testing.T) {
	p := LoadPolicy{High: 1, Low: 0.5, Dwell: 1}
	traces := map[dsm.HostID]machine.Trace{
		5: mustTrace(t, machine.Step{At: 3, Load: 2}),
		2: mustTrace(t, machine.Step{At: 1, Load: 2}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Host != 2 || events[1].Host != 5 {
		t.Fatalf("events not time-sorted: %v", events)
	}
	if events[0].At != 2 || events[1].At != 4 {
		t.Errorf("fire times wrong: %v", events)
	}
}

// TestPolicySpareJoinsFirst pins the out-of-team seeding: a traced
// host outside the initial team is a spare, so its first event is a
// join once it has idled for a dwell — and only then can a load spike
// drive it out again.
func TestPolicySpareJoinsFirst(t *testing.T) {
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 2}
	traces := map[dsm.HostID]machine.Trace{
		// Idle until t=10, loaded until t=25, idle after.
		5: mustTrace(t, machine.Step{At: 10, Load: 4}, machine.Step{At: 25, Load: 0}),
	}
	events, err := p.Derive(traces, []dsm.HostID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindJoin, Host: 5, At: 2},
		{Kind: KindLeave, Host: 5, At: 12},
		{Kind: KindJoin, Host: 5, At: 27},
	}
	if len(events) != len(want) {
		t.Fatalf("derived %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	// A spare that never idles long enough stays out entirely.
	busy := map[dsm.HostID]machine.Trace{
		4: mustTrace(t, machine.Step{At: 0, Load: 3}),
	}
	events, err = p.Derive(busy, []dsm.HostID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("busy spare must derive nothing, got %v", events)
	}
}

func TestPolicyDeriveRejectsInvalid(t *testing.T) {
	if _, err := (LoadPolicy{}).Derive(nil, nil); err == nil {
		t.Error("invalid policy accepted by Derive")
	}
}

func TestPolicyDefaultDwell(t *testing.T) {
	p := LoadPolicy{High: 1, Low: 0.5}
	traces := map[dsm.HostID]machine.Trace{
		1: mustTrace(t, machine.Step{At: 10, Load: 2}),
	}
	events, err := p.Derive(traces, allHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].At != 10+DefaultDwell {
		t.Errorf("default dwell not applied: %v", events)
	}
}

// TestPolicyEventsDriveAdaptation closes the loop at the manager
// level: derived events apply at adaptation points exactly like
// hand-scheduled ones — leave first, rejoin once the load has dropped.
func TestPolicyEventsDriveAdaptation(t *testing.T) {
	c, err := dsm.New(dsm.Config{MaxHosts: 4, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if _, err := c.Join(dsm.HostID(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := LoadPolicy{High: 1.5, Low: 0.25, Dwell: 1}
	events, err := p.Derive(map[dsm.HostID]machine.Trace{
		2: mustTrace(t, machine.Step{At: 1, Load: 2}, machine.Step{At: 8, Load: 0}),
	}, []dsm.HostID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	for _, ev := range events {
		if err := m.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	team := []dsm.HostID{0, 1, 2}
	res, err := m.AtAdaptationPoint(c, team, simtime.Seconds(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 1 || res.Applied[0].Event.Kind != KindLeave {
		t.Fatalf("leave not applied at t=3: %+v", res.Applied)
	}
	if len(res.Team) != 2 {
		t.Fatalf("team after leave: %v", res.Team)
	}
	res2, err := m.AtAdaptationPoint(c, res.Team, simtime.Seconds(20), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Applied) != 1 || res2.Applied[0].Event.Kind != KindJoin {
		t.Fatalf("rejoin not applied at t=20: %+v", res2.Applied)
	}
	if len(res2.Team) != 3 {
		t.Fatalf("team after rejoin: %v", res2.Team)
	}
}
