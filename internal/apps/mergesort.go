package apps

import (
	"fmt"
	"math"
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
	run := newSortRun(n, cfg.Cutoff)
	tmp := run.tmp

	rt.For("msort.init", 0, n, func(p *omp.Proc, lo, hi int) {
		buf := tmp[lo:hi]
		for i := range buf {
			buf[i] = sortValue(lo + i)
		}
		data.WriteRange(p.Mem(), lo, buf)
		p.ChargeUnits(hi-lo, InitCostPerElement)
	})

	var rec func(tp *omp.TaskProc, lo, hi int)
	rec = func(tp *omp.TaskProc, lo, hi int) {
		if hi-lo <= cfg.Cutoff {
			buf := tmp[lo:hi]
			data.ReadRange(tp.Mem(), lo, hi, buf)
			run.sortLeaf(buf)
			data.WriteRange(tp.Mem(), lo, buf)
			tp.ChargeUnits((hi-lo)*log2ceil(hi-lo), cfg.CompareCost)
			return
		}
		mid := lo + (hi-lo)/2
		tp.Spawn(func(c *omp.TaskProc) { rec(c, lo, mid) })
		tp.Spawn(func(c *omp.TaskProc) { rec(c, mid, hi) })
		tp.TaskWait()
		left, right := tmp[lo:mid], tmp[mid:hi]
		data.ReadRange(tp.Mem(), lo, mid, left)
		data.ReadRange(tp.Mem(), mid, hi, right)
		// Merge straight into the pages, span by span: they write-fault
		// in the order a WriteRange of a staged result would take them.
		i, j := 0, 0
		for k := lo; k < hi; {
			out := data.WriteSpan(tp.Mem(), k, hi)
			i, j = run.merge(out, left, right, i, j)
			k += len(out)
		}
		tp.ChargeUnits(hi-lo, cfg.MergeCost)
	}
	rt.Tasks("msort", func(tp *omp.TaskProc) { rec(tp, 0, n) })

	res := measure(rt, "mergesort", procs)
	mp := rt.MasterProc()
	data.ReadRange(mp.Mem(), 0, n, tmp)
	for i := 1; i < n; i++ {
		if tmp[i-1] > tmp[i] {
			return res, fmt.Errorf("apps: mergesort output unsorted at %d", i)
		}
	}
	res.Checksum = sortChecksum(tmp)
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

// sortRun is one mergesort run's host-side state. One buffer serves
// the whole tree: a leaf or a merge of [lo,hi) stages its keys in
// tmp[lo:hi]. Task ranges nest and a merge starts only after its
// TaskWait, so no two live tasks ever share a slot, even across the
// yields a fault inside ReadRange or WriteSpan takes. aux is the radix
// sort's second array; the sort makes no DSM call and so never yields,
// which lets every leaf share it.
//
// bits stays true while every leaf the run has sorted took the radix
// path. A merge of [lo,hi) runs after every leaf inside the range, so
// while bits holds its keys are non-negative and not NaN, and they
// order as their bit patterns: the merge may compare those (mergeBits).
// The first leaf that falls back clears it for the rest of the run.
// It is a field of the run, not package state, because farm workers
// run kernels concurrently.
type sortRun struct {
	tmp, aux []float64
	bits     bool
}

func newSortRun(n, cutoff int) *sortRun {
	return &sortRun{tmp: make([]float64, n), aux: make([]float64, min(cutoff, n)), bits: true}
}

// sortLeaf sorts one leaf's keys in place.
func (r *sortRun) sortLeaf(buf []float64) {
	if !sortFloat64s(buf, r.aux[:len(buf)]) {
		r.bits = false
	}
}

// merge is mergeSpan, through mergeBits while every leaf so far took
// the radix path.
func (r *sortRun) merge(out, left, right []float64, i, j int) (int, int) {
	if r.bits {
		return mergeBits(out, left, right, i, j)
	}
	return mergeSpan(out, left, right, i, j)
}

// Radix sort parameters: 8-bit digits, so eight passes cover a key's 64
// bits and the eight histograms together take 8 KB of stack, which
// stays in L1 beside the keys being scattered. 11-bit digits need one
// pass fewer but 48 KB of histograms, a whole 48 KB L1d, and the
// scatter's counter increments then miss it. sortFloat64s's histogram
// pass is written out for byte digits.
const (
	radixBits   = 8
	radixDigits = (64 + radixBits - 1) / radixBits
	radixMask   = 1<<radixBits - 1
	// radixMaxKey is the bit pattern of +Inf. Every key the radix path
	// accepts is at most this: a set sign bit (negatives, -0) or a NaN
	// reads larger.
	radixMaxKey = 0x7FF0000000000000
)

// sortFloat64s sorts a in increasing order with the result
// sort.Float64s gives, bit for bit, using aux (len(aux) >= len(a)) as
// scratch, and reports whether it took the radix path. Non-negative
// floats that are not NaN order exactly as their IEEE bit patterns do,
// and equal values among them have equal bits, so an LSD radix sort on
// the uint64 patterns reproduces the comparison sort. Any key with the
// sign bit set (including -0) or any NaN, where that equivalence fails,
// sends the whole slice to sort.Float64s instead, untouched, and the
// result is false. An empty slice or a single key that the radix path
// would accept reports true.
//
// All histograms are built in one pass over the keys, and a digit that
// every key shares is skipped without a scatter.
func sortFloat64s(a, aux []float64) bool {
	n := len(a)
	if n < 2 {
		return n == 0 || math.Float64bits(a[0]) <= radixMaxKey
	}
	if uint64(n) > math.MaxUint32 {
		sort.Float64s(a)
		return false
	}
	var counts [radixDigits][1 << radixBits]uint32
	for _, x := range a {
		b := math.Float64bits(x)
		if b > radixMaxKey {
			sort.Float64s(a)
			return false
		}
		// One byte a digit, written out: a loop over d shifts by a
		// variable and costs as much as the increments.
		counts[0][uint8(b)]++
		counts[1][uint8(b>>8)]++
		counts[2][uint8(b>>16)]++
		counts[3][uint8(b>>24)]++
		counts[4][uint8(b>>32)]++
		counts[5][uint8(b>>40)]++
		counts[6][uint8(b>>48)]++
		counts[7][uint8(b>>56)]++
	}
	src, dst := a, aux[:n]
	for d := range counts {
		c := &counts[d]
		shift := d * radixBits
		if c[math.Float64bits(src[0])>>shift&radixMask] == uint32(n) {
			continue
		}
		var sum uint32
		for k, m := range c {
			c[k] = sum
			sum += m
		}
		for _, x := range src {
			k := math.Float64bits(x) >> shift & radixMask
			dst[c[k]] = x
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
	return true
}

// mergeSpan fills out with the merge of left[i:] and right[j:], taking
// left[i] whenever left[i] <= right[j] (so ties go to the left, and a
// NaN on either side to the right) and the rest of one side once the
// other is exhausted. It returns the advanced cursors, for the next span to
// continue from. The choice is made without a branch on the keys: on
// random input either outcome is equally likely, so a branch would
// mispredict half the time.
//
// mergeSpan is the oracle mergeBits is held to, the merge of a run
// after any of its leaves fell back to sort.Float64s, and the only
// merge off amd64.
func mergeSpan(out, left, right []float64, i, j int) (int, int) {
	q := 0
	for q < len(out) && i < len(left) && j < len(right) {
		// The compiler turns this if into SETcc, but a select of the
		// value itself back into a branch; the mask keeps it out.
		l, r := left[i], right[j]
		t := 0
		if l <= r {
			t = 1
		}
		lb, rb := math.Float64bits(l), math.Float64bits(r)
		out[q] = math.Float64frombits(rb ^ (lb^rb)&-uint64(t))
		i += t
		j += 1 - t
		q++
	}
	if q < len(out) {
		if i < len(left) {
			i += copy(out[q:], left[i:])
		} else {
			j += copy(out[q:], right[j:])
		}
	}
	return i, j
}
