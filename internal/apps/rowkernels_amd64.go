package apps

// useAVX2 routes axpySub and stencil5 to the AVX2 assembly. The CPU
// probe sets it once at package init; on an amd64 without AVX2 (or
// whose OS does not save the YMM registers) it stays false and the
// kernels run their Go oracles, the code every other GOARCH runs. Only
// the tests write it, to drive the fallback dispatch on an AVX2 host.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the
// registers it uses: CPUID leaf 1 sets OSXSAVE and AVX, XCR0 enables
// the SSE and AVX state (bits 1 and 2), and leaf 7 sets AVX2 (EBX bit
// 5).
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

func axpySub(dst, x []float32, a float32, chg []uint64, at int) {
	if useAVX2 {
		axpySubAVX2(dst, x, a, chg, at)
		return
	}
	axpySubGo(dst, x, a, chg, at)
}

func stencil5(out, up, down, mid []float32, chg []uint64, at int) {
	if useAVX2 {
		stencil5AVX2(out, up, down, mid, chg, at)
		return
	}
	stencil5Go(out, up, down, mid, chg, at)
}

// axpySubAVX2 is axpySub sixteen lanes an iteration, then an 8-lane
// and a 4-lane step and single elements. See rowkernels.go for the
// contract and axpySubGo for the oracle.
//
//go:noescape
func axpySubAVX2(dst, x []float32, a float32, chg []uint64, at int)

// stencil5AVX2 is stencil5 in the same steps as axpySubAVX2. See
// rowkernels.go for the contract and stencil5Go for the oracle.
//
//go:noescape
func stencil5AVX2(out, up, down, mid []float32, chg []uint64, at int)

// nbfSum sums the forces of one atom's partners, two partners an
// iteration. See rowkernels.go for the contract and nbfSumGo for the
// oracle.
//
//go:noescape
func nbfSum(xi, yi, zi float64, xs, ys, zs []float64) (sx, sy, sz float64)

// mergeBits is mergeSpan for keys that order as their bit patterns
// (non-negative and not NaN, the keys sortFloat64s radix-sorts): the
// assembly loop compares the patterns as integers, and the tail copy
// is the same as mergeSpan's. On such keys it gives mergeSpan's bits
// and cursors (TestMergeSpanMatchesSwitch, FuzzMerge).
func mergeBits(out, left, right []float64, i, j int) (int, int) {
	a, b := mergeBitsLoop(out, left[i:], right[j:])
	i, j = i+a, j+b
	if q := a + b; q < len(out) {
		if i < len(left) {
			i += copy(out[q:], left[i:])
		} else {
			j += copy(out[q:], right[j:])
		}
	}
	return i, j
}

// mergeBitsLoop merges left and right into out until out is full or
// one side runs out, taking left's key when its bit pattern is at most
// right's, and returns how many keys it took from each side.
//
//go:noescape
func mergeBitsLoop(out, left, right []float64) (a, b int)
