package nowomp_test

import (
	"path/filepath"
	"testing"

	"nowomp"
)

// TestPublicAPIQuickstart exercises the facade end to end: runtime
// construction, shared allocation, parallel loops, adaptation, and
// checkpoint/restore — the README quickstart, as a test.
func TestPublicAPIQuickstart(t *testing.T) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 5, Procs: 3, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := nowomp.Alloc[float64](rt, "v", 4096)
	if err != nil {
		t.Fatal(err)
	}
	rt.For("init", 0, a.Len(), func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = float64(lo + i)
		}
		a.WriteRange(p.Mem(), lo, buf)
	})

	// A workstation joins; once its spawn completes the team grows.
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Join, Host: 3, At: rt.Now()}); err != nil {
		t.Fatal(err)
	}
	rt.Parallel("burn", func(p *nowomp.Proc) { p.Charge(1.0) })
	rt.Parallel("tick", func(p *nowomp.Proc) {})
	if rt.NProcs() != 4 {
		t.Fatalf("team = %d, want 4 after join", rt.NProcs())
	}

	sum := rt.For("sum", 0, a.Len(),
		func(p *nowomp.Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, nowomp.WithReduce(0, func(x, y float64) float64 { return x + y }))
	want := float64(4095) * 4096 / 2
	if sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}

	// Checkpoint and restore through the facade.
	path := filepath.Join(t.TempDir(), "q.ckpt")
	if err := nowomp.Checkpoint(rt, path, map[string]any{"phase": 2}); err != nil {
		t.Fatal(err)
	}
	rt2, restored, err := nowomp.Restore(nowomp.Config{Hosts: 5, Procs: 3, Adaptive: true}, path)
	if err != nil {
		t.Fatal(err)
	}
	var phase int
	if err := restored.State("phase", &phase); err != nil || phase != 2 {
		t.Fatalf("restored phase = %d, err = %v", phase, err)
	}
	b, err := nowomp.Alloc[float64](rt2, "v", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Get(rt2.MasterProc().Mem(), 100); got != 100 {
		t.Fatalf("restored v[100] = %g, want 100", got)
	}
}

func TestFacadeKernels(t *testing.T) {
	rt, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := nowomp.DefaultJacobi()
	cfg.N, cfg.Iters = 64, 4
	res, err := nowomp.RunJacobi(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.App != "jacobi" || res.Time <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	if nowomp.DefaultGauss().N != 3072 || nowomp.DefaultFFT3D().NX != 128 || nowomp.DefaultNBF().Atoms != 131072 {
		t.Fatal("default kernel configs must match the paper")
	}
	if nowomp.DefaultModel().LinkBandwidth != 12.5e6 {
		t.Fatal("default model must be the calibrated 100 Mbps fabric")
	}
	if nowomp.DefaultGrace != 3.0 {
		t.Fatal("default grace must be the paper's 3 s")
	}
}
