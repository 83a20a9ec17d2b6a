package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"nowomp/internal/omp"
)

// sortFloat64s is held to sort.Float64s, mergeSpan to the three-case
// merge the kernel used before, and mergeBits to mergeSpan, bit for
// bit.

// sortCanary fills aux; the fallback path must leave it alone.
var sortCanary = math.Float64frombits(0xc0de1234c0de1234)

// checkSortFloat64s sorts a copy of in both ways and compares the bits.
// radix says which path the input must take: the radix sort scatters
// through aux, the fallback never touches it.
func checkSortFloat64s(t testing.TB, in []float64, radix bool) {
	t.Helper()
	want := append([]float64(nil), in...)
	sort.Float64s(want)
	got := append([]float64(nil), in...)
	aux := make([]float64, len(in))
	for i := range aux {
		aux[i] = sortCanary
	}
	if took := sortFloat64s(got, aux); took != radix {
		t.Fatalf("n=%d: sortFloat64s reports the radix path %v, want %v", len(in), took, radix)
	}
	if !sameBits64(got, want) {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: element %d is %v (%#x), sort.Float64s has %v (%#x)",
					len(in), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	touched := false
	for _, x := range aux {
		if math.Float64bits(x) != math.Float64bits(sortCanary) {
			touched = true
		}
	}
	distinct := len(in) > 1 && !sameBits64(want[:1], want[len(want)-1:])
	switch {
	case radix && distinct && !touched:
		t.Fatalf("n=%d: radix input left aux untouched: it took the fallback", len(in))
	case !radix && touched:
		t.Fatalf("n=%d: fallback input was scattered through aux", len(in))
	}
}

// sortInputs returns n keys for the named family.
func sortInputs(family string, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		u := sortValue(i*7 + len(family))
		switch family {
		case "uniform":
			v[i] = u
		case "duplicates":
			v[i] = float64(int(u*8)) / 8
		case "binades":
			v[i] = math.Ldexp(u, int(u*2000)-1000)
		case "specials":
			v[i] = []float64{u, 0, math.SmallestNonzeroFloat64,
				math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, math.Inf(1), u * 1e300}[i%7]
		case "negative zero":
			v[i] = u
			if i == n/2 {
				v[i] = math.Copysign(0, -1)
			}
		case "negatives":
			v[i] = u - 0.5
		case "nan":
			v[i] = u
			if i == n-1 {
				v[i] = math.NaN()
			}
		case "one digit":
			// Keys that differ in one radix digit only, a different
			// digit for each length: every other digit is skipped. The
			// top digit keeps the sign bit clear.
			d := n % radixDigits
			k := uint64(u * (1 << radixBits))
			if d == radixDigits-1 {
				k >>= 1
			}
			v[i] = math.Float64frombits(0x3FE5555555555555&^(radixMask<<(d*radixBits)) | k<<(d*radixBits))
		default:
			panic(family)
		}
	}
	return v
}

func TestSortFloat64sMatchesSort(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 255, 256, 257, 511, 512, 513, 1 << 11, DefaultSort().Cutoff}
	for _, family := range []string{"uniform", "duplicates", "binades", "specials"} {
		for _, n := range lengths {
			checkSortFloat64s(t, sortInputs(family, n), true)
		}
	}
	// Each digit alone varies: at lengths 256..263 n%8 names the digit.
	for n := 256; n < 256+radixDigits; n++ {
		checkSortFloat64s(t, sortInputs("one digit", n), true)
	}
	for _, family := range []string{"negative zero", "negatives", "nan"} {
		for _, n := range lengths[1:] {
			checkSortFloat64s(t, sortInputs(family, n), false)
		}
	}
	// A digit every key shares is skipped; with every digit shared
	// there is nothing to scatter.
	checkSortFloat64s(t, []float64{0.5, 0.5, 0.5}, true)
	checkSortFloat64s(t, []float64{1, 1 + 0x1p-52, 1, 1 + 0x1p-52}, true)
	checkSortFloat64s(t, []float64{math.Inf(1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64}, true)
}

// mergeSpanSwitch is the merge loop the kernel ran before mergeSpan:
// the oracle.
func mergeSpanSwitch(out, left, right []float64, i, j int) (int, int) {
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
	return i, j
}

// radixOrdered reports whether every key orders as its bit pattern:
// the keys sortFloat64s radix-sorts, and mergeBits may merge.
func radixOrdered(v []float64) bool {
	for _, x := range v {
		if math.Float64bits(x) > radixMaxKey {
			return false
		}
	}
	return true
}

// checkMerge merges left and right into spans the way the kernel's
// WriteSpan loop cuts them for a range starting at element lo (spans
// end at 512-element page boundaries), with mergeSpan and the oracle,
// and compares the bits and the cursors after every span. When every
// key is radix-ordered it holds mergeBits to mergeSpan the same way.
func checkMerge(t testing.TB, left, right []float64, lo int) {
	t.Helper()
	checkMergeWith(t, "mergeSpan", mergeSpan, "the switch", mergeSpanSwitch, left, right, lo)
	if radixOrdered(left) && radixOrdered(right) {
		checkMergeWith(t, "mergeBits", mergeBits, "mergeSpan", mergeSpan, left, right, lo)
	}
}

type mergeFunc func(out, left, right []float64, i, j int) (int, int)

func checkMergeWith(t testing.TB, name string, merge mergeFunc, oracleName string, oracle mergeFunc, left, right []float64, lo int) {
	t.Helper()
	n := len(left) + len(right)
	got, want := make([]float64, n), make([]float64, n)
	gi, gj, wi, wj := 0, 0, 0, 0
	for k := 0; k < n; {
		end := min(n, (lo+k)/512*512+512-lo)
		gi, gj = merge(got[k:end], left, right, gi, gj)
		wi, wj = oracle(want[k:end], left, right, wi, wj)
		if gi != wi || gj != wj {
			t.Fatalf("%s: after span [%d,%d) of %d+%d at lo=%d: cursors %d,%d, %s has %d,%d",
				name, k, end, len(left), len(right), lo, gi, gj, oracleName, wi, wj)
		}
		if !sameBits64(got[k:end], want[k:end]) {
			t.Fatalf("%s: span [%d,%d) of %d+%d at lo=%d differs from %s", name, k, end, len(left), len(right), lo, oracleName)
		}
		k = end
	}
}

func TestMergeSpanMatchesSwitch(t *testing.T) {
	sorted := func(family string, n, salt int) []float64 {
		v := sortInputs(family, n+salt)[salt:]
		sort.Float64s(v)
		return v
	}
	// uniform, duplicates and specials (+0, subnormals, MaxFloat64 and
	// +Inf among them) are radix-ordered, so mergeBits runs on them too.
	for _, lo := range []int{0, 1, 255, 511} {
		for _, n := range []int{0, 1, 2, 3, 300, 512, 1024, 1500} {
			for _, family := range []string{"uniform", "duplicates", "specials", "negative zero", "negatives", "nan"} {
				checkMerge(t, sorted(family, n, 0), sorted(family, n, 3), lo)
				checkMerge(t, sorted(family, n, 0), sorted(family, n/3, 5), lo)
			}
			// One side runs out in the middle of a span: every left
			// key precedes every right key, and then the reverse.
			low, high := make([]float64, n), make([]float64, n)
			for i := range low {
				low[i], high[i] = float64(i), float64(n+i)
			}
			checkMerge(t, low, high, lo)
			checkMerge(t, high, low, lo)
			// The two sides interleave in runs of duplicates, so the
			// merge changes sides on ties and between them.
			steps, flat := make([]float64, n), make([]float64, n)
			for i := range steps {
				steps[i], flat[i] = float64(i/7), float64(i/5)
			}
			checkMerge(t, steps, flat, lo)
			checkMerge(t, flat, steps, lo)
			// Ties go to the left, including +0 against -0.
			zeros := make([]float64, n)
			negZeros := make([]float64, n)
			for i := range negZeros {
				negZeros[i] = math.Copysign(0, -1)
			}
			checkMerge(t, zeros, negZeros, lo)
			checkMerge(t, negZeros, zeros, lo)
		}
	}
}

// fuzzRawFloat64s decodes little-endian float64s, NaN payloads and all,
// at most max of them.
func fuzzRawFloat64s(data []byte, max int) []float64 {
	v := make([]float64, min(len(data)/8, max))
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v
}

// sortSeeds encodes seed inputs for the two fuzz targets.
func sortSeeds() [][]byte {
	var seeds [][]byte
	for i, family := range []string{"uniform", "duplicates", "binades", "specials", "negative zero", "negatives", "nan"} {
		var b []byte
		for _, x := range sortInputs(family, fuzzSeedLengths[i*2+3]) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		seeds = append(seeds, b)
	}
	return seeds
}

func FuzzSortFloat64s(f *testing.F) {
	for i, b := range sortSeeds() {
		f.Add(b, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, radix bool) {
		v := fuzzRawFloat64s(data, 2048)
		if radix {
			foldRadix(v)
		}
		want := append([]float64(nil), v...)
		sort.Float64s(want)
		ordered := radixOrdered(v)
		if took := sortFloat64s(v, make([]float64, len(v))); took != ordered {
			t.Fatalf("%d keys: sortFloat64s reports the radix path %v, want %v", len(v), took, ordered)
		}
		if !sameBits64(v, want) {
			t.Fatalf("%d keys: radix sort differs from sort.Float64s", len(v))
		}
	})
}

// foldRadix moves keys onto the radix path: it clears every sign bit
// and turns NaNs into +Inf.
func foldRadix(v []float64) {
	for i, x := range v {
		if x != x {
			x = math.Inf(1)
		}
		v[i] = math.Abs(x)
	}
}

func FuzzMerge(f *testing.F) {
	for i, b := range sortSeeds() {
		f.Add(b, uint16(i*97), uint16(i*131), i%3 != 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, split, lo uint16, sorted bool) {
		v := fuzzRawFloat64s(data, 4096)
		s := 0
		if len(v) > 0 {
			s = int(split) % (len(v) + 1)
		}
		left, right := v[:s], v[s:]
		if sorted {
			sort.Float64s(left)
			sort.Float64s(right)
		}
		checkMerge(t, left, right, int(lo)%512)
		// The same keys folded onto the radix path, which mergeBits
		// merges: folding keeps each side sorted only where it was
		// non-negative, and the equivalence holds unsorted too.
		foldRadix(left)
		foldRadix(right)
		if sorted {
			sort.Float64s(left)
			sort.Float64s(right)
		}
		checkMerge(t, left, right, int(lo)%512)
	})
}

// TestSortRunSelectsTheMerge tests the run's choice between the merges.
// The kernel's own keys never leave the radix path, so every merge of a
// run at the default size compares bit patterns. Once one leaf falls
// back to sort.Float64s, every later merge of the run is mergeSpan's:
// on negative keys the two merges disagree, and the run's output must
// be mergeSpan's.
func TestSortRunSelectsTheMerge(t *testing.T) {
	cfg := DefaultSort()
	run := newSortRun(cfg.N, cfg.Cutoff)
	for i := range run.tmp {
		run.tmp[i] = sortValue(i)
	}
	for lo := 0; lo < cfg.N; lo += cfg.Cutoff {
		run.sortLeaf(run.tmp[lo : lo+cfg.Cutoff])
		if !run.bits {
			t.Fatalf("the leaf at %d of a default run fell back to sort.Float64s", lo)
		}
	}

	left, right := sortInputs("negatives", 700), sortInputs("negatives", 701)[1:]
	sort.Float64s(left)
	sort.Float64s(right)
	want := make([]float64, 1400)
	mergeSpan(want, left, right, 0, 0)
	if runtime.GOARCH == "amd64" {
		bits := make([]float64, 1400)
		mergeBits(bits, left, right, 0, 0)
		if sameBits64(bits, want) {
			t.Fatal("mergeBits and mergeSpan agree on negative keys: the test below cannot tell them apart")
		}
	}
	run = newSortRun(1400, 700)
	run.sortLeaf(append([]float64(nil), left...))
	if run.bits {
		t.Fatal("a leaf of negative keys left the run on the radix path")
	}
	run.sortLeaf(sortInputs("uniform", 700))
	if run.bits {
		t.Fatal("a radix leaf after a fallback put the run back on the radix path")
	}
	got := make([]float64, 1400)
	i, j := 0, 0
	for k := 0; k < len(got); k += 512 {
		i, j = run.merge(got[k:min(k+512, len(got))], left, right, i, j)
	}
	if !sameBits64(got, want) {
		t.Fatal("a merge after a fallback leaf did not go through mergeSpan")
	}
}

// TestMergesortAllocationPin holds one run's host allocations to its
// N-element staging buffer, the cutoff-sized radix buffer and what the
// task runtime needs per task: no leaf and no merge allocates keys of
// its own. Cutting the cutoff from 4096 to 512 keys at N = 2^15 adds
// 112 tasks (56 leaves, 56 merges) and three merge levels and shortens
// the radix buffer by 3584 keys. Per extra task that costs 5.52
// allocations of about 165 bytes in all; per-merge halves cost 2N
// float64s a level (7 KB a task), and a buffer per leaf half an
// allocation a task more.
func TestMergesortAllocationPin(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race runtime allocates a varying amount per coroutine switch")
			}
		}
	}
	const n = 1 << 15
	// run returns the fewest allocations and bytes of three runs.
	run := func(cutoff int) (allocs, bytes float64) {
		allocs, bytes = math.Inf(1), math.Inf(1)
		for range 3 {
			rt := newRT(t, 1, 1, false)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunMergesort(rt, SortConfig{N: n, Cutoff: cutoff}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	coarseAllocs, coarseBytes := run(1 << 12)
	fineAllocs, fineBytes := run(1 << 9)
	const extraTasks = 112
	allocs := (fineAllocs - coarseAllocs) / extraTasks
	bytes := (fineBytes - coarseBytes + 8*(1<<12-1<<9)) / extraTasks
	if allocs > 5.6 || bytes > 512 {
		t.Errorf("each extra leaf or merge allocates %.2f times, %.0f bytes; want <= 5.6 times, <= 512 bytes: a task stages keys outside the run's buffers", allocs, bytes)
	}
}

// TestMergesortConcurrentRuns runs two mergesorts at once, as farm
// workers do. Each run owns its staging buffers; under -race a buffer
// shared between runs is a reported race.
func TestMergesortConcurrentRuns(t *testing.T) {
	cfgs := []SortConfig{{N: 1 << 13, Cutoff: 1 << 10}, {N: 1 << 14, Cutoff: 1 << 11}}
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := omp.New(omp.Config{Hosts: 4, Procs: 3})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := RunMergesort(rt, cfg)
			if err == nil && res.Checksum != MergesortReference(cfg) {
				err = fmt.Errorf("checksum %.17g, reference %.17g", res.Checksum, MergesortReference(cfg))
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d (N=%d): %v", i, cfgs[i].N, err)
		}
	}
}
