package apps

import (
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
)

func newRT(t *testing.T, hosts, procs int, adaptive bool) *omp.Runtime {
	t.Helper()
	rt, err := omp.New(omp.Config{Hosts: hosts, Procs: procs, Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// small app configs used across the verification tests.
func smallJacobi() JacobiConfig {
	c := DefaultJacobi()
	c.N, c.Iters = 64, 8
	return c
}

func smallGauss() GaussConfig {
	c := DefaultGauss()
	c.N = 64
	return c
}

func smallFFT() FFT3DConfig {
	// 16x16x16: an x-plane is exactly one 4 KB page, preserving the
	// full-scale property that plane partitions are page-aligned.
	c := DefaultFFT3D()
	c.NX, c.NY, c.NZ, c.Iters = 16, 16, 16, 3
	return c
}

func smallNBF() NBFConfig {
	// 2048 atoms: each float64 array is 4 pages, so 1/2/4-way block
	// partitions are page-aligned like the full-scale runs.
	c := DefaultNBF()
	c.Atoms, c.Partners, c.Iters = 2048, 8, 3
	return c
}

func TestJacobiMatchesReference(t *testing.T) {
	want := JacobiReference(smallJacobi())
	for _, procs := range []int{1, 2, 4} {
		rt := newRT(t, 4, procs, false)
		res, err := RunJacobi(rt, smallJacobi())
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Checksum != want {
			t.Fatalf("procs=%d: checksum %g, want %g (must match bit for bit)", procs, res.Checksum, want)
		}
		if res.Time <= 0 {
			t.Fatalf("procs=%d: no virtual time elapsed", procs)
		}
	}
}

func TestGaussMatchesReference(t *testing.T) {
	want := GaussReference(smallGauss())
	for _, procs := range []int{1, 3} {
		rt := newRT(t, 4, procs, false)
		res, err := RunGauss(rt, smallGauss())
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Checksum != want {
			t.Fatalf("procs=%d: checksum %g, want %g", procs, res.Checksum, want)
		}
	}
}

func TestFFT3DMatchesReference(t *testing.T) {
	want := FFT3DReference(smallFFT())
	for _, procs := range []int{1, 2, 4} {
		rt := newRT(t, 4, procs, false)
		res, err := RunFFT3D(rt, smallFFT())
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Checksum != want {
			t.Fatalf("procs=%d: checksum %g, want %g", procs, res.Checksum, want)
		}
	}
}

func TestNBFMatchesReference(t *testing.T) {
	want := NBFReference(smallNBF())
	for _, procs := range []int{1, 2, 4} {
		rt := newRT(t, 4, procs, false)
		res, err := RunNBF(rt, smallNBF())
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if res.Checksum != want {
			t.Fatalf("procs=%d: checksum %g, want %g", procs, res.Checksum, want)
		}
	}
}

// TestNBFOddPartnersOddBlockBoundary is the regression test for the
// partner-list layout: at these scales Partners is odd (5, 11, 13, 17)
// and six processes put block boundaries on odd atoms, so an unpadded
// int32 list splits a DSM word between two initialising processes and
// the word-race check panics. Every protocol must run them bit-exact.
func TestNBFOddPartnersOddBlockBoundary(t *testing.T) {
	for _, scale := range []float64{0.065, 0.14, 0.17, 0.22} {
		cfg := DefaultNBF().Scaled(scale)
		if cfg.Partners%2 == 0 {
			t.Fatalf("scale %g: Partners = %d, the test needs it odd", scale, cfg.Partners)
		}
		want := NBFReference(cfg)
		for _, proto := range []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC, dsm.Hybrid} {
			rt, err := omp.New(omp.Config{Hosts: 8, Procs: 6, Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunNBF(rt, cfg)
			if err != nil {
				t.Fatalf("scale %g %s: %v", scale, proto, err)
			}
			if res.Checksum != want {
				t.Errorf("scale %g %s: checksum %g, want %g (must match bit for bit)", scale, proto, res.Checksum, want)
			}
		}
	}
}

// TestSharingModes checks the Table 1 diff column's shape: Jacobi's
// partition-straddling pages produce diffs; Gauss, FFT and NBF are
// pure single-writer codes with zero diffs.
func TestSharingModes(t *testing.T) {
	rt := newRT(t, 4, 4, false)
	if res, err := RunJacobi(rt, smallJacobi()); err != nil {
		t.Fatal(err)
	} else if res.Diffs == 0 {
		t.Error("jacobi must produce diff traffic (boundary pages have two writers)")
	}

	for name, run := range map[string]func(*omp.Runtime) (Result, error){
		"gauss": func(rt *omp.Runtime) (Result, error) { return RunGauss(rt, smallGauss()) },
		"fft3d": func(rt *omp.Runtime) (Result, error) { return RunFFT3D(rt, smallFFT()) },
		"nbf":   func(rt *omp.Runtime) (Result, error) { return RunNBF(rt, smallNBF()) },
	} {
		rt := newRT(t, 4, 4, false)
		res, err := run(rt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Diffs != 0 {
			t.Errorf("%s fetched %d diffs, want 0 (single-writer pages only)", name, res.Diffs)
		}
		if res.Pages == 0 {
			t.Errorf("%s fetched no pages at all", name)
		}
	}
}

// TestParallelSpeedup checks the coarse Table 1 shape: more processes,
// less virtual time, on a compute-heavy configuration.
func TestParallelSpeedup(t *testing.T) {
	cfg := DefaultJacobi()
	cfg.N, cfg.Iters = 1024, 30
	var t1, t4 float64
	{
		rt := newRT(t, 4, 1, false)
		res, err := RunJacobi(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t1 = float64(res.Time)
	}
	{
		rt := newRT(t, 4, 4, false)
		res, err := RunJacobi(rt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t4 = float64(res.Time)
	}
	if t4 >= t1 {
		t.Fatalf("4-proc run (%g s) not faster than 1-proc (%g s)", t4, t1)
	}
	if t1/t4 < 2 {
		t.Fatalf("speedup %g too low for a compute-bound stencil", t1/t4)
	}
}

// TestOneProcRunsHaveNoTraffic mirrors Table 1's one-node rows: zero
// network transfers.
func TestOneProcRunsHaveNoTraffic(t *testing.T) {
	rt := newRT(t, 2, 1, false)
	res, err := RunJacobi(rt, smallJacobi())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 0 || res.Bytes != 0 || res.Messages != 0 || res.Diffs != 0 {
		t.Fatalf("1-proc run produced traffic: %+v", res)
	}
}

// TestAppsUnderAdaptation runs every kernel with a leave and a join
// mid-computation and requires the result to still match the
// sequential reference exactly: the transparency claim of the paper.
func TestAppsUnderAdaptation(t *testing.T) {
	type testCase struct {
		name string
		want float64
		run  func(rt *omp.Runtime) (Result, error)
	}
	cases := []testCase{
		{"jacobi", JacobiReference(smallJacobi()), func(rt *omp.Runtime) (Result, error) { return RunJacobi(rt, smallJacobi()) }},
		{"gauss", GaussReference(smallGauss()), func(rt *omp.Runtime) (Result, error) { return RunGauss(rt, smallGauss()) }},
		{"fft3d", FFT3DReference(smallFFT()), func(rt *omp.Runtime) (Result, error) { return RunFFT3D(rt, smallFFT()) }},
		{"nbf", NBFReference(smallNBF()), func(rt *omp.Runtime) (Result, error) { return RunNBF(rt, smallNBF()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t, 5, 4, true)
			// A leave early on and a join that matures mid-run.
			if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: 0.0005}); err != nil {
				t.Fatal(err)
			}
			if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 4, At: 0.001}); err != nil {
				t.Fatal(err)
			}
			res, err := tc.run(rt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != tc.want {
				t.Fatalf("checksum with adaptation = %g, want %g", res.Checksum, tc.want)
			}
			if len(rt.AdaptLog()) == 0 {
				t.Fatal("no adaptation was recorded; events did not fire")
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	rt := newRT(t, 2, 1, false)
	if _, err := RunJacobi(rt, JacobiConfig{N: 2, Iters: 1}); err == nil {
		t.Error("jacobi N=2 must fail")
	}
	rt = newRT(t, 2, 1, false)
	if _, err := RunGauss(rt, GaussConfig{N: 1}); err == nil {
		t.Error("gauss N=1 must fail")
	}
	rt = newRT(t, 2, 1, false)
	if _, err := RunFFT3D(rt, FFT3DConfig{NX: 12, NY: 4, NZ: 4, Iters: 1}); err == nil {
		t.Error("fft3d non-power-of-two must fail")
	}
	rt = newRT(t, 2, 1, false)
	if _, err := RunNBF(rt, NBFConfig{Atoms: 1, Partners: 1, Iters: 1}); err == nil {
		t.Error("nbf Atoms=1 must fail")
	}
}

func TestScaledConfigs(t *testing.T) {
	j := DefaultJacobi().Scaled(0.1)
	if j.N != 250 || j.Iters != 100 {
		t.Errorf("jacobi scaled 0.1 = %+v", j)
	}
	g := DefaultGauss().Scaled(0.25)
	if g.N != 1024 {
		t.Errorf("gauss scaled 0.25 N = %d, want 1024 (page-aligned rows)", g.N)
	}
	f := DefaultFFT3D().Scaled(0.25)
	if f.NX != 32 || f.NY != 16 || f.NZ != 16 {
		t.Errorf("fft scaled 0.25 = %+v", f)
	}
	nb := DefaultNBF().Scaled(0.01)
	if nb.Atoms != 4096 || nb.Partners < 4 {
		t.Errorf("nbf scaled 0.01 = %+v, want 4096 atoms (page-aligned blocks)", nb)
	}
	// Scale 1.0 must be the paper's sizes.
	if d := DefaultJacobi().Scaled(1); d.N != 2500 || d.Iters != 1000 {
		t.Errorf("jacobi scale 1 changed: %+v", d)
	}
}

func TestRunnersRegistry(t *testing.T) {
	rs := Runners()
	if len(rs) != 4 {
		t.Fatalf("runners = %d, want 4", len(rs))
	}
	wantOrder := []string{"gauss", "jacobi", "fft3d", "nbf"}
	for i, r := range rs {
		if r.Name != wantOrder[i] {
			t.Fatalf("runner %d = %q, want %q", i, r.Name, wantOrder[i])
		}
	}
	if _, ok := RunnerByName("jacobi"); !ok {
		t.Fatal("RunnerByName(jacobi) not found")
	}
	if _, ok := RunnerByName("nope"); ok {
		t.Fatal("RunnerByName(nope) must fail")
	}
	// Tiny end-to-end run through the registry.
	r, _ := RunnerByName("fft3d")
	rt := newRT(t, 2, 2, false)
	res, err := r.Run(rt, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != r.Reference(0.05) {
		t.Fatalf("registry run checksum mismatch")
	}
}

// TestSharedMemoryFootprint sanity-checks the Table 1 "shared memory"
// column at full scale without running the kernels.
func TestSharedMemoryFootprint(t *testing.T) {
	j := DefaultJacobi()
	jacobiBytes := 2 * j.N * j.N * 4
	if mb := float64(jacobiBytes) / 1e6; mb < 45 || mb > 55 {
		t.Errorf("jacobi shared = %.1f MB, paper says 47.8 MB", mb)
	}
	g := DefaultGauss()
	gaussBytes := g.N * g.N * 4
	if mb := float64(gaussBytes) / 1e6; mb < 35 || mb > 50 {
		t.Errorf("gauss shared = %.1f MB, paper says 48 MB", mb)
	}
	n := DefaultNBF()
	nbfBytes := n.Atoms*n.Partners*4 + 6*n.Atoms*8
	if mb := float64(nbfBytes) / 1e6; mb < 40 || mb > 60 {
		t.Errorf("nbf shared = %.1f MB, paper says 52 MB", mb)
	}
}

// TestScratchReusesBestFit: a returned slice is served again, to the
// smallest request it fits, and a request nothing fits allocates.
func TestScratchReusesBestFit(t *testing.T) {
	var s scratch[float64]
	small, big := s.get(8), s.get(64)
	s.put(big, small)
	if got := s.get(6); len(got) != 6 || &got[0] != &small[0] {
		t.Fatalf("get(6) = len %d, want the free 8-slice resliced", len(got))
	}
	if got := s.get(9); len(got) != 9 || &got[0] != &big[0] {
		t.Fatalf("get(9) = len %d, want the free 64-slice resliced", len(got))
	}
	if got := s.get(4); len(got) != 4 || len(s.free) != 0 {
		t.Fatalf("get on an empty list: len %d, %d still free", len(got), len(s.free))
	}
}
