package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
)

func buildAndRun(t *testing.T, rt *omp.Runtime, from, to int) float64 {
	t.Helper()
	a, err := omp.Alloc[float64](rt, "acc", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Restored() && from != 0 {
		t.Fatal("test misuse: fresh runtime must start at 0")
	}
	for it := from; it < to; it++ {
		rt.For("step", 0, 2048, func(p *omp.Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			a.ReadRange(p.Mem(), lo, hi, buf)
			for i := range buf {
				buf[i] += float64(it + 1)
			}
			a.WriteRange(p.Mem(), lo, buf)
		})
	}
	return rt.For("sum", 0, 2048,
		func(p *omp.Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, omp.WithReduce(0, func(x, y float64) float64 { return x + y }))
}

func TestCheckpointRestartMatchesUninterruptedRun(t *testing.T) {
	cfg := omp.Config{Hosts: 4, Procs: 3, Adaptive: true}

	// Uninterrupted run: 10 iterations.
	rtFull, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := buildAndRun(t, rtFull, 0, 10)

	// Interrupted run: 6 iterations, checkpoint, "crash", restore,
	// 4 more iterations.
	rt1, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = buildAndRunNoSum(t, rt1, 0, 6)
	var buf bytes.Buffer
	rep, err := Save(rt1, &buf, map[string]any{"iter": 6})
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("checkpoint must cost time (GC + collect)")
	}

	rt2, restored, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var iter int
	if err := restored.State("iter", &iter); err != nil {
		t.Fatal(err)
	}
	if iter != 6 {
		t.Fatalf("restored iter = %d, want 6", iter)
	}
	if !rt2.Restored() {
		t.Fatal("runtime must report restored mode")
	}
	got := buildAndRun(t, rt2, iter, 10)
	if got != want {
		t.Fatalf("restarted result = %g, uninterrupted = %g", got, want)
	}
}

func buildAndRunNoSum(t *testing.T, rt *omp.Runtime, from, to int) float64 {
	t.Helper()
	a, err := omp.Alloc[float64](rt, "acc", 2048)
	if err != nil {
		t.Fatal(err)
	}
	for it := from; it < to; it++ {
		rt.For("step", 0, 2048, func(p *omp.Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			a.ReadRange(p.Mem(), lo, hi, buf)
			for i := range buf {
				buf[i] += float64(it + 1)
			}
			a.WriteRange(p.Mem(), lo, buf)
		})
	}
	return 0
}

func TestRestorePreservesTeamAndClock(t *testing.T) {
	cfg := omp.Config{Hosts: 5, Procs: 4, Adaptive: true}
	rt1, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildAndRunNoSum(t, rt1, 0, 3)
	timeBefore := rt1.Now()
	var buf bytes.Buffer
	if _, err := Save(rt1, &buf, nil); err != nil {
		t.Fatal(err)
	}
	rt2, _, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt2.Team(), rt1.Team()) {
		t.Fatalf("restored team %v, want %v", rt2.Team(), rt1.Team())
	}
	if rt2.Now() < timeBefore {
		t.Fatalf("restored clock %v precedes checkpoint time %v", rt2.Now(), timeBefore)
	}
	if rt2.Forks() != rt1.Forks() {
		t.Fatalf("restored forks %d, want %d", rt2.Forks(), rt1.Forks())
	}
}

func TestRestoreSmallerTeamAfterLeave(t *testing.T) {
	// Checkpoint taken when the team had shrunk: restore must not
	// resurrect the departed host.
	cfg := omp.Config{Hosts: 4, Procs: 4, Adaptive: true}
	rt1, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := omp.Alloc[float64](rt1, "acc", 512)
	rt1.For("w", 0, 512, func(p *omp.Proc, lo, hi int) {
		for i := lo; i < hi; i++ {
			a.Set(p.Mem(), i, 1)
		}
	})
	if err := rt1.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: rt1.Now()}); err != nil {
		t.Fatal(err)
	}
	rt1.Parallel("tick", func(p *omp.Proc) {})
	if rt1.NProcs() != 3 {
		t.Fatalf("team = %d, want 3", rt1.NProcs())
	}
	var buf bytes.Buffer
	if _, err := Save(rt1, &buf, nil); err != nil {
		t.Fatal(err)
	}
	rt2, _, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.NProcs() != 3 {
		t.Fatalf("restored team = %d, want 3", rt2.NProcs())
	}
	if rt2.Cluster().Host(dsm.HostID(2)).Active() {
		t.Fatal("departed host resurrected by restore")
	}
}

func TestSaveFileAtomicAndRestoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.ckpt")
	cfg := omp.Config{Hosts: 3, Procs: 2, Adaptive: true}
	rt1, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buildAndRunNoSum(t, rt1, 0, 2)
	if _, err := SaveFile(rt1, path, map[string]any{"iter": 2}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
	rt2, restored, err := RestoreFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	var iter int
	if err := restored.State("iter", &iter); err != nil || iter != 2 {
		t.Fatalf("iter = %d, err = %v", iter, err)
	}
	if rt2 == nil {
		t.Fatal("nil runtime")
	}
}

func TestRestoreErrors(t *testing.T) {
	cfg := omp.Config{Hosts: 3, Procs: 2, Adaptive: true}
	// Garbage input.
	if _, _, err := Restore(cfg, bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage input must fail")
	}
	// Allocation replay mismatch.
	rt1, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt1, "acc", 128); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(rt1, &buf, nil); err != nil {
		t.Fatal(err)
	}
	rt2, _, err := Restore(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt2, "other-name", 128); !errors.Is(err, omp.ErrRestoreMismatch) {
		t.Fatalf("mismatched allocation replay must fail with ErrRestoreMismatch, got %v", err)
	}
	// Missing state key.
	var r Restored
	var x int
	if err := (&r).State("nope", &x); err == nil {
		t.Fatal("missing key must fail")
	}
}

func TestRestoreFileMissing(t *testing.T) {
	cfg := omp.Config{Hosts: 2, Procs: 1, Adaptive: true}
	if _, _, err := RestoreFile(cfg, filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file must fail")
	}
}
