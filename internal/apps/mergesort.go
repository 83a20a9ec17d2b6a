package apps

import (
	"fmt"
	"math/bits"
	"sort"

	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// Calibrated per-unit costs for the tasking kernels, in the style of
// the Table 1 constants: a comparison-swap step of an in-cache sort and
// a merge move on the paper's 300 MHz Pentium II.
const (
	SortCompareCost = simtime.Seconds(80e-9)
	SortMergeCost   = simtime.Seconds(60e-9)
	QuadEvalCost    = simtime.Seconds(25e-6)
)

// SortConfig parameterises the parallel mergesort kernel: the
// divide-and-conquer archetype of OpenMP tasking. N float64 keys are
// sorted by recursive task splitting down to Cutoff-sized leaves; each
// merge waits on its two child tasks, so the task tree is as deep as
// the recursion — precisely the shape loop schedules cannot express.
type SortConfig struct {
	// N is the key count, a power of two so every recursion boundary
	// stays page-aligned (512 float64 per 4 KB page).
	N int
	// Cutoff is the leaf run length sorted in place.
	Cutoff int
	// CompareCost is charged per element per level of the leaf sort;
	// MergeCost per element per merge. Zero means the calibrated
	// defaults.
	CompareCost simtime.Seconds
	MergeCost   simtime.Seconds
}

// DefaultSort returns the reference mergesort configuration: one
// million keys (8 MB of shared memory), 8 Ki-element leaves.
func DefaultSort() SortConfig {
	return SortConfig{N: 1 << 20, Cutoff: 1 << 13}
}

// Scaled shrinks the key count to the nearest power of two; scale 1.0
// is the reference size. The cutoff shrinks with it so small runs
// still build a tree.
func (c SortConfig) Scaled(s float64) SortConfig {
	c.N = scalePow2(c.N, s, 1<<12)
	for c.Cutoff > c.N/4 && c.Cutoff > 512 {
		c.Cutoff /= 2
	}
	return c
}

func (c SortConfig) validate() error {
	if c.N < 2 || c.N&(c.N-1) != 0 {
		return fmt.Errorf("apps: mergesort needs N a power of two >= 2, got %d", c.N)
	}
	if c.Cutoff < 2 {
		return fmt.Errorf("apps: mergesort needs Cutoff >= 2, got %d", c.Cutoff)
	}
	return nil
}

// sortValue is the deterministic unsorted input: a splitmix64 hash of
// the index mapped into [0,1).
func sortValue(i int) float64 {
	h := uint64(i)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// sortChecksum folds a sorted slice into the verification value: a
// position-weighted sum, so any misplaced element changes it.
func sortChecksum(v []float64) float64 {
	sum := 0.0
	for i, x := range v {
		sum += x * float64(i%101+1)
	}
	return sum
}

func log2ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// RunMergesort executes the kernel as one task region. Leaves read
// their range, sort it locally and write it back; interior tasks spawn
// their halves, taskwait, and merge — reading data their children may
// have produced on other processes, which is exactly the consistency
// the task runtime's steal-time release/acquire pays for.
func RunMergesort(rt *omp.Runtime, cfg SortConfig) (Result, error) {
	if cfg.CompareCost == 0 {
		cfg.CompareCost = SortCompareCost
	}
	if cfg.MergeCost == 0 {
		cfg.MergeCost = SortMergeCost
	}
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	n := cfg.N
	data, err := omp.Alloc[float64](rt, "msort.data", n)
	if err != nil {
		return Result{}, err
	}
	procs := rt.NProcs()

	rt.For("msort.init", 0, n, func(p *omp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = sortValue(lo + i)
		}
		data.WriteRange(p.Mem(), lo, buf)
		p.ChargeUnits(hi-lo, InitCostPerElement)
	})

	// Leaves all sort one size, so they share work slices. A merge's
	// halves are not shared: each size serves a few merges only, and a
	// list holding every level to the end of the run outweighs the
	// allocation it saves (+40 MB peak RSS at N = 2^21).
	var leaves scratch[float64]
	var rec func(tp *omp.TaskProc, lo, hi int)
	rec = func(tp *omp.TaskProc, lo, hi int) {
		if hi-lo <= cfg.Cutoff {
			buf := leaves.get(hi - lo)
			data.ReadRange(tp.Mem(), lo, hi, buf)
			sort.Float64s(buf)
			data.WriteRange(tp.Mem(), lo, buf)
			tp.ChargeUnits((hi-lo)*log2ceil(hi-lo), cfg.CompareCost)
			leaves.put(buf)
			return
		}
		mid := lo + (hi-lo)/2
		tp.Spawn(func(c *omp.TaskProc) { rec(c, lo, mid) })
		tp.Spawn(func(c *omp.TaskProc) { rec(c, mid, hi) })
		tp.TaskWait()
		left := make([]float64, mid-lo)
		right := make([]float64, hi-mid)
		data.ReadRange(tp.Mem(), lo, mid, left)
		data.ReadRange(tp.Mem(), mid, hi, right)
		// Merge straight into the pages, span by span: they write-fault
		// in the order a WriteRange of a staged result would take them.
		i, j := 0, 0
		for k := lo; k < hi; {
			out := data.WriteSpan(tp.Mem(), k, hi)
			for q := range out {
				switch {
				case i == len(left):
					out[q] = right[j]
					j++
				case j == len(right) || left[i] <= right[j]:
					out[q] = left[i]
					i++
				default:
					out[q] = right[j]
					j++
				}
			}
			k += len(out)
		}
		tp.ChargeUnits(hi-lo, cfg.MergeCost)
	}
	rt.Tasks("msort", func(tp *omp.TaskProc) { rec(tp, 0, n) })

	res := measure(rt, "mergesort", procs)
	mp := rt.MasterProc()
	out := make([]float64, n)
	data.ReadRange(mp.Mem(), 0, n, out)
	for i := 1; i < n; i++ {
		if out[i-1] > out[i] {
			return res, fmt.Errorf("apps: mergesort output unsorted at %d", i)
		}
	}
	res.Checksum = sortChecksum(out)
	return res, nil
}

// MergesortReference computes the checksum of the identical sequential
// sort.
func MergesortReference(cfg SortConfig) float64 {
	v := make([]float64, cfg.N)
	for i := range v {
		v[i] = sortValue(i)
	}
	sort.Float64s(v)
	return sortChecksum(v)
}
