package apps

import (
	"fmt"
	"math"

	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// GaussConfig parameterises Gaussian elimination (without pivoting, as
// in the paper's simple numerical kernel) over an NxN float32 matrix.
// The paper runs 3072x3072, one elimination step per parallel
// construct, so there are N adaptation points.
type GaussConfig struct {
	N int
	// CostPerElem is the calibrated per-element-update compute charge.
	CostPerElem simtime.Seconds
}

// DefaultGauss returns the paper's Table 1 configuration.
func DefaultGauss() GaussConfig {
	return GaussConfig{N: 3072, CostPerElem: GaussCostPerElem}
}

// Scaled shrinks the matrix linearly; scale 1.0 is the paper's size.
// N is kept a multiple of 512 so rows stay 2 KB multiples: at the
// paper's 3072 a row is exactly three pages, which is why its Gauss
// shows zero diffs (block partitions are page-aligned); scaled runs
// preserve that property for power-of-two team sizes.
func (c GaussConfig) Scaled(s float64) GaussConfig {
	n := scaleDim(c.N, s, 512)
	n = (n + 256) / 512 * 512
	if n < 512 {
		n = 512
	}
	c.N = n
	return c
}

func (c GaussConfig) validate() error {
	if c.N < 2 {
		return fmt.Errorf("apps: gauss needs N >= 2, got %d", c.N)
	}
	return nil
}

// gaussInit gives the deterministic, diagonally dominant initial
// matrix, so elimination without pivoting is numerically stable.
func gaussInit(i, j, n int) float32 {
	d := i - j
	if d < 0 {
		d = -d
	}
	v := float32(1) / float32(d+1)
	if i == j {
		v += float32(n)
	}
	return v
}

// RunGauss executes the kernel: at step k, every process eliminates
// column k from its own block of rows below k, reading the pivot row
// from its owner. Row ownership is stable across steps (the iteration
// space is always the full row range with a guard), which is why the
// paper's Gauss shows pure single-writer behaviour: full-page pivot
// fetches and zero diffs.
func RunGauss(rt *omp.Runtime, cfg GaussConfig) (Result, error) {
	if cfg.CostPerElem == 0 {
		cfg.CostPerElem = GaussCostPerElem
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := cfg.N
	a, err := omp.AllocMatrix[float32](rt, "gauss.a", n, n)
	if err != nil {
		return Result{}, err
	}
	procs := rt.NProcs()

	rt.For("gauss.init", 0, n, func(p *omp.Proc, lo, hi int) {
		row := make([]float32, n)
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				row[j] = gaussInit(i, j, n)
			}
			a.WriteRow(p.Mem(), i, row)
		}
		p.ChargeUnits((hi-lo)*n, InitCostPerElement)
	})

	// The staged pivot row is fully overwritten before it is read, every
	// step, so it is reused across steps.
	var pivots scratch[float32]
	for k := 0; k < n-1; k++ {
		k := k
		rt.For("gauss.elim", 0, n, func(p *omp.Proc, lo, hi int) {
			if hi <= k+1 {
				return // all of this block is already triangularised
			}
			if lo < k+1 {
				lo = k + 1
			}
			width := n - k
			pivot := pivots.get(width)
			a.ReadRowRange(p.Mem(), k, k, n, pivot)
			for i := lo; i < hi; i++ {
				// Eliminate in place, span by span, on page memory. Each
				// element of the row is stored once per step, so the row
				// goes through write-once spans: they fault the row in
				// exactly as WriteRowSpan would, and the page's diff mask
				// is the kernel's report of the elements it changed
				// instead of a twin scan.
				var m float32
				for j := k; j < n; {
					s, ch := a.WriteRowSpanOnce(p.Mem(), i, j, n)
					bits, at := ch.Bits()
					pv := pivot[j-k : j-k+len(s)]
					q := 0
					if j == k {
						m = s[0] / pv[0]
						if math.Float32bits(s[0]) != 0 {
							ch.Set(0)
						}
						s[0] = 0
						q = 1
					}
					axpySub(s[q:], pv[q:], m, bits, at+q)
					j += len(s)
				}
			}
			pivots.put(pivot)
			p.ChargeUnits((hi-lo)*width, cfg.CostPerElem)
		})
	}

	// Timing and traffic are measured at the end of the computation;
	// the verification checksum below is outside the paper's window.
	res := measure(rt, "gauss", procs)
	mp := rt.MasterProc()
	row := make([]float32, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		a.ReadRow(mp.Mem(), i, row)
		for _, v := range row {
			sum += float64(v)
		}
	}
	res.Checksum = sum
	return res, nil
}

// GaussReference computes the checksum of the identical sequential
// elimination: same float32 arithmetic in the same per-element order.
func GaussReference(cfg GaussConfig) float64 {
	n := cfg.N
	a := make([]float32, n*n)
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		for j := range row {
			row[j] = gaussInit(i, j, n)
		}
	}
	for k := 0; k < n-1; k++ {
		piv := a[k*n+k : (k+1)*n]
		for i := k + 1; i < n; i++ {
			row := a[i*n+k : (i+1)*n][:len(piv)]
			m := row[0] / piv[0]
			row[0] = 0
			for j := 1; j < len(piv); j++ {
				row[j] -= float32(m * piv[j])
			}
		}
	}
	sum := 0.0
	for _, v := range a {
		sum += float64(v)
	}
	return sum
}
