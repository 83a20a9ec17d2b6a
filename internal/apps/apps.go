// Package apps implements the four application kernels of the paper's
// evaluation (section 5.2) on the adaptive OpenMP runtime, plus
// sequential reference implementations used to verify that the DSM
// delivers exactly the same results:
//
//   - Jacobi: a two-array 5-point stencil over a 2500x2500 grid
//   - Gauss:  Gaussian elimination over a 3072x3072 matrix
//   - 3D-FFT: the NAS-style 3-D FFT (three 1-D transform passes with a
//     transposition between the second and third) on 128x64x64
//   - NBF:    the non-bonded-force kernel of a molecular dynamics code,
//     131072 atoms with 80 partners each — the irregular application
//
// Each kernel does its arithmetic for real (so results are verified
// bit-for-bit against the reference) and charges virtual compute time
// with per-element costs calibrated from the paper's one-processor
// runtimes in Table 1.
package apps

import (
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// Calibrated per-unit compute costs, derived from Table 1's
// one-processor runs at full problem size:
//
//	Jacobi: 1283.63 s / (2500*2500*1000) element updates = 205.4 ns
//	Gauss:  1404.20 s / (3072^3/3)       element updates = 145.3 ns
//	3D-FFT: 289.90 s / 100 iters / 524288 points = 5.53 us per point
//	        per iteration, split over three transform passes and the
//	        transposition
//	NBF:    2398.79 s / (100*131072*80) interactions = 2.288 us
const (
	JacobiCostPerElem  = simtime.Seconds(205.4e-9)
	GaussCostPerElem   = simtime.Seconds(145.3e-9)
	FFTCostPerPass     = simtime.Seconds(1.60e-6) // x3 passes
	FFTCostTranspose   = simtime.Seconds(0.73e-6) // 3*1.60+0.73 = 5.53
	NBFCostPerPair     = simtime.Seconds(2.288e-6)
	NBFCostPerUpdate   = simtime.Seconds(50e-9)
	InitCostPerElement = simtime.Seconds(30e-9)
)

// Result summarises one application run, mirroring the columns of
// Table 1.
type Result struct {
	App   string
	Procs int
	// Time is the virtual wall-clock of the run.
	Time simtime.Seconds
	// Checksum verifies the computation against the reference.
	Checksum float64
	// SharedBytes is the allocated shared memory.
	SharedBytes int
	// Pages, Bytes, Messages, Diffs are the network-traffic columns:
	// full 4 KB page transfers, total payload bytes, message count and
	// diffs fetched.
	Pages    int64
	Bytes    int64
	Messages int64
	Diffs    int64
}

// MB returns the traffic volume in the paper's MB units.
func (r Result) MB() float64 { return float64(r.Bytes) / 1e6 }

// measure assembles a Result from the runtime's counters, taken at
// the end of the computation (verification output is excluded, like
// the paper's measurement window).
func measure(rt *omp.Runtime, app string, procs int) Result {
	stats := rt.Cluster().Stats()
	net := rt.Cluster().Fabric().Snapshot()
	return Result{
		App:         app,
		Procs:       procs,
		Time:        rt.Now(),
		SharedBytes: rt.Cluster().TotalSharedBytes(),
		Pages:       stats.PageFetches,
		Bytes:       net.TotalBytes(),
		Messages:    net.TotalMessages(),
		Diffs:       stats.DiffFetches,
	}
}

// Runner is the uniform entry point the tools and the benchmark
// harness use to run any of the four applications at a given scale.
type Runner struct {
	Name string
	// Run executes the kernel at the given linear scale (1.0 = the
	// paper's problem size) on the runtime.
	Run func(rt *omp.Runtime, scale float64) (Result, error)
	// Reference computes the sequential reference checksum at the same
	// scale.
	Reference func(scale float64) float64
}

// Runners lists the four applications in the paper's Table 1 order.
func Runners() []Runner {
	return []Runner{
		{
			Name: "gauss",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunGauss(rt, DefaultGauss().Scaled(s))
			},
			Reference: func(s float64) float64 { return GaussReference(DefaultGauss().Scaled(s)) },
		},
		{
			Name: "jacobi",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunJacobi(rt, DefaultJacobi().Scaled(s))
			},
			Reference: func(s float64) float64 { return JacobiReference(DefaultJacobi().Scaled(s)) },
		},
		{
			Name: "fft3d",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunFFT3D(rt, DefaultFFT3D().Scaled(s))
			},
			Reference: func(s float64) float64 { return FFT3DReference(DefaultFFT3D().Scaled(s)) },
		},
		{
			Name: "nbf",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunNBF(rt, DefaultNBF().Scaled(s))
			},
			Reference: func(s float64) float64 { return NBFReference(DefaultNBF().Scaled(s)) },
		},
	}
}

// TaskRunners lists the irregular kernels built on the task runtime
// (rt.Tasks). They are kept out of Runners so the Table 1 regeneration
// stays exactly the paper's four applications.
func TaskRunners() []Runner {
	return []Runner{
		{
			Name: "mergesort",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunMergesort(rt, DefaultSort().Scaled(s))
			},
			Reference: func(s float64) float64 { return MergesortReference(DefaultSort().Scaled(s)) },
		},
		{
			Name: "quadrature",
			Run: func(rt *omp.Runtime, s float64) (Result, error) {
				return RunQuadrature(rt, DefaultQuad().Scaled(s))
			},
			Reference: func(s float64) float64 { return QuadratureReference(DefaultQuad().Scaled(s)) },
		},
	}
}

// RunnerByName returns the runner with the given name, or false. Both
// the loop kernels and the task kernels are in scope.
func RunnerByName(name string) (Runner, bool) {
	for _, r := range append(Runners(), TaskRunners()...) {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// scaleDim scales a linear dimension, keeping a floor.
func scaleDim(n int, s float64, floor int) int {
	v := int(float64(n) * s)
	if v < floor {
		return floor
	}
	return v
}

// scalePow2 scales a power-of-two dimension to the nearest power of
// two, keeping a floor.
func scalePow2(n int, s float64, floor int) int {
	target := float64(n) * s
	p := floor
	for p*2 <= int(target+0.5) {
		p *= 2
	}
	return p
}

// evenDim rounds an odd dimension up to the next even one, for
// word-aligned float32 rows.
func evenDim(n int) int {
	if n%2 == 1 {
		return n + 1
	}
	return n
}
