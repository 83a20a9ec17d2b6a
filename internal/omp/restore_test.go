package omp

import (
	"errors"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
)

func TestRestoreCheckMismatches(t *testing.T) {
	rt := newRT(t, 3, 2, true)
	rt.BeginRestore([]RegionDump{
		{Name: "a", Bytes: 800, Data: make([]byte, 800)},
	}, 5.0, 7)
	if !rt.Restored() {
		t.Fatal("runtime must be in restore mode")
	}
	if rt.Now() < 5.0 {
		t.Fatalf("restored clock = %v, want >= 5", rt.Now())
	}
	if rt.Forks() != 7 {
		t.Fatalf("restored forks = %d, want 7", rt.Forks())
	}
	// Wrong name.
	if _, err := Alloc[float64](rt, "b", 100); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("mismatched name must fail with ErrRestoreMismatch, got %v", err)
	}
	// Wrong size.
	if _, err := Alloc[float64](rt, "a", 50); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("mismatched size must fail with ErrRestoreMismatch, got %v", err)
	}
	// Correct replay succeeds and loads data.
	a, err := Alloc[float64](rt, "a", 100)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	// A second allocation has no checkpointed region.
	if _, err := Alloc[float64](rt, "extra", 10); !errors.Is(err, ErrRestoreMismatch) {
		t.Fatalf("extra allocation must fail with ErrRestoreMismatch, got %v", err)
	}
}

func TestRestoreCheckAllTypes(t *testing.T) {
	rt := newRT(t, 2, 1, true)
	rt.BeginRestore([]RegionDump{
		{Name: "f32", Bytes: 400, Data: make([]byte, 400)},
		{Name: "m32", Bytes: 160, Data: make([]byte, 160)},
		{Name: "m64", Bytes: 320, Data: make([]byte, 320)},
		{Name: "z", Bytes: 320, Data: make([]byte, 320)},
		{Name: "i", Bytes: 40, Data: make([]byte, 40)},
	}, 0, 0)
	if _, err := Alloc[float32](rt, "f32", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := AllocMatrix[float32](rt, "m32", 10, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := AllocMatrix[float64](rt, "m64", 10, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Alloc[complex128](rt, "z", 20); err != nil {
		t.Fatal(err)
	}
	if _, err := Alloc[int32](rt, "i", 10); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreTeamValidation(t *testing.T) {
	rt := newRT(t, 4, 2, true)
	if err := rt.RestoreTeam(nil); err == nil {
		t.Fatal("empty team must fail")
	}
	if err := rt.RestoreTeam([]dsm.HostID{1, 0}); err == nil {
		t.Fatal("team not led by master must fail")
	}
	// Grow to {0,2,3}: host 1 (initial team) must be deactivated.
	if err := rt.RestoreTeam([]dsm.HostID{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if rt.NProcs() != 3 {
		t.Fatalf("team = %d, want 3", rt.NProcs())
	}
	if rt.Cluster().Host(1).Active() {
		t.Fatal("host 1 must have been deactivated")
	}
	if !rt.Cluster().Host(2).Active() || !rt.Cluster().Host(3).Active() {
		t.Fatal("hosts 2 and 3 must be active")
	}
}

func TestAdaptLogIsACopy(t *testing.T) {
	rt := newRT(t, 3, 3, true)
	Alloc[float64](rt, "v", 64)
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: rt.Now()}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel("tick", func(p *Proc) {})
	log := rt.AdaptLog()
	if len(log) != 1 {
		t.Fatalf("log = %d entries", len(log))
	}
	log[0].Index = -999
	if rt.AdaptLog()[0].Index == -999 {
		t.Fatal("AdaptLog must return a copy")
	}
}

func TestTeamIsACopy(t *testing.T) {
	rt := newRT(t, 3, 3, false)
	team := rt.Team()
	team[0] = 99
	if rt.Team()[0] == 99 {
		t.Fatal("Team must return a copy")
	}
}
