package apps

import (
	"encoding/binary"
	"math"
	"runtime/debug"
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/page"
)

// nbfSum is held to nbfSumGo bit for bit, like the row kernels of
// rowkernels_test.go. On a GOARCH without assembly both names are the
// same loop and the comparison is trivial; the guard checks still run.

// hwNaN64 is the one NaN the inputs carry: the quiet NaN SSE2 itself
// produces for Inf-Inf or 0*Inf (see hwNaN for why there is one).
var hwNaN64 = math.Float64frombits(0xfff8000000000000)

var nbfSpecials = []float64{
	hwNaN64,
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff), // largest denormals
	math.Float64frombits(0x0010000000000000), // smallest normal
	math.MaxFloat64, -math.MaxFloat64,
}

// nbfCanary fills everything nbfSum must leave alone.
var nbfCanary = math.Float64frombits(0xc0de1234c0de1234)

// nbfValues returns n deterministic coordinates for stream s: mostly
// distinct finite values spread over many binades (so a one-lane slip
// or a reassociated sum shows in the last bit), about one in seven a
// special.
func nbfValues(n, s int) []float64 {
	v := make([]float64, n)
	x := uint64(88172645463325252 + 7919*uint64(s) + uint64(n))
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%7 == 0 {
			v[i] = nbfSpecials[(x>>8)%uint64(len(nbfSpecials))]
		} else {
			v[i] = (float64(x>>11)/float64(1<<53) - 0.5) * math.Ldexp(1, int(x%41)-20)
		}
	}
	return v
}

// nbfAtoms are the atoms the exhaustive test cycles through; the last
// ones are special.
var nbfAtoms = [][3]float64{
	{0.25, -0.5, 0.125},
	{1e-3, 3.5, -2},
	{-7.75, 0, 1e5},
	{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64},
	{math.Inf(1), 1, 2},
	{hwNaN64, 0.5, 0.5},
	{math.MaxFloat64, -math.MaxFloat64, 1},
}

// placeF64 copies vals into a fresh canary-filled backing array, off
// elements past a 2-element guard, and returns the backing and the
// view of the copy.
func placeF64(vals []float64, off int) (back, view []float64) {
	back = make([]float64, 2+off+len(vals)+2)
	for i := range back {
		back[i] = nbfCanary
	}
	view = back[2+off : 2+off+len(vals) : 2+off+len(vals)]
	copy(view, vals)
	return back, view
}

func sameBits64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkNBFSum runs nbfSum and nbfSumGo on the same inputs, each slice
// at its own offset from a guarded backing, and fails on any differing
// bit of the three sums or any change to a backing.
func checkNBFSum(t testing.TB, atom [3]float64, xs, ys, zs []float64, off int) {
	t.Helper()
	xBack, xv := placeF64(xs, off)
	yBack, yv := placeF64(ys, (off+1)%2)
	zBack, zv := placeF64(zs, off)
	before := [][]float64{append([]float64(nil), xBack...), append([]float64(nil), yBack...), append([]float64(nil), zBack...)}
	gx, gy, gz := nbfSum(atom[0], atom[1], atom[2], xv, yv, zv)
	wx, wy, wz := nbfSumGo(atom[0], atom[1], atom[2], xv, yv, zv)
	if !sameBits64([]float64{gx, gy, gz}, []float64{wx, wy, wz}) {
		t.Fatalf("nbfSum lens %d/%d/%d off=%d atom=%v: (%#x %#x %#x), Go loop (%#x %#x %#x)",
			len(xs), len(ys), len(zs), off, atom,
			math.Float64bits(gx), math.Float64bits(gy), math.Float64bits(gz),
			math.Float64bits(wx), math.Float64bits(wy), math.Float64bits(wz))
	}
	for i, back := range [][]float64{xBack, yBack, zBack} {
		if !sameBits64(back, before[i]) {
			t.Fatalf("nbfSum lens %d/%d/%d off=%d: input %d or its guards changed", len(xs), len(ys), len(zs), off, i)
		}
	}
}

// TestNBFSumMatchesGo covers every length through 257 partners (the
// paired body with and without the odd tail, many times over) at both
// 8-byte start offsets of a 16-byte line, on inputs laced with NaN,
// ±Inf, ±0, denormals and ±MaxFloat64, with some partners coincident
// with the atom (a zero difference on every axis).
func TestNBFSumMatchesGo(t *testing.T) {
	for n := 0; n <= 257; n++ {
		xs, ys, zs := nbfValues(n, 0), nbfValues(n, 1), nbfValues(n, 2)
		for off := 0; off < 2; off++ {
			atom := nbfAtoms[(n+off)%len(nbfAtoms)]
			for j := off; j < n; j += 5 {
				xs[j], ys[j], zs[j] = atom[0], atom[1], atom[2]
			}
			checkNBFSum(t, atom, xs, ys, zs, off)
		}
	}
}

// TestNBFSumCommonPrefix pins the contract for slices of unequal
// length: the shortest bounds the sum, and the partners past it are
// not read into it.
func TestNBFSumCommonPrefix(t *testing.T) {
	atom := nbfAtoms[0]
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 9, 40} {
		for short := 0; short < 3; short++ {
			args := [3][]float64{nbfValues(n+3, 3), nbfValues(n+3, 4), nbfValues(n+3, 5)}
			args[short] = args[short][:n]
			checkNBFSum(t, atom, args[0], args[1], args[2], n%2)
			gx, gy, gz := nbfSum(atom[0], atom[1], atom[2], args[0], args[1], args[2])
			wx, wy, wz := nbfSumGo(atom[0], atom[1], atom[2], args[0][:n], args[1][:n], args[2][:n])
			if !sameBits64([]float64{gx, gy, gz}, []float64{wx, wy, wz}) {
				t.Fatalf("short slice %d, n=%d: the sum reads past the shortest slice", short, n)
			}
		}
	}
}

// TestNBFSumStartsAtPositiveZero pins where the sums start: at +0,
// as the scalar loop's var sx float64 does, so a lone partner whose
// force on an axis is -0 leaves +0 there (+0 + -0 is +0), in the
// assembly and the oracle alike.
func TestNBFSumStartsAtPositiveZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	xs, ys, zs := []float64{-0.1}, []float64{negZero}, []float64{negZero}
	for _, sum := range []func(xi, yi, zi float64, xs, ys, zs []float64) (float64, float64, float64){nbfSum, nbfSumGo} {
		gx, gy, gz := sum(0, 0, 0, xs, ys, zs)
		if math.Signbit(gy) || math.Signbit(gz) || gx >= 0 {
			t.Fatalf("one partner on -x: sums (%v %v %v), want negative x and +0 on y, z", gx, gy, gz)
		}
	}
}

// fuzzFloat64 decodes one float64 from its bits; any NaN becomes
// hwNaN64.
func fuzzFloat64(bits uint64) float64 {
	if v := math.Float64frombits(bits); v == v {
		return v
	}
	return hwNaN64
}

// fuzzFloat64s decodes little-endian float64s, at most max of them.
func fuzzFloat64s(data []byte, max int) []float64 {
	v := make([]float64, min(len(data)/8, max))
	for i := range v {
		v[i] = fuzzFloat64(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return v
}

func FuzzNBFSum(f *testing.F) {
	for i, n := range fuzzSeedLengths[:17] {
		var b []byte
		for s := 0; s < 3; s++ {
			for _, v := range nbfValues(n, s) {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		atom := nbfAtoms[i%len(nbfAtoms)]
		f.Add(b, math.Float64bits(atom[0]), math.Float64bits(atom[1]), math.Float64bits(atom[2]), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, xi, yi, zi uint64, off uint8) {
		v := fuzzFloat64s(data, 3*257)
		n := len(v) / 3
		atom := [3]float64{fuzzFloat64(xi), fuzzFloat64(yi), fuzzFloat64(zi)}
		checkNBFSum(t, atom, v[:n], v[n:2*n], v[2*n:3*n], int(off%2))
	})
}

// TestNBFAllocationPin pins the host allocations one NBF iteration adds
// on 4 procs — a force and an update construct — at the 68.25 the
// kernel made before its partners were gathered through a page table
// and summed in assembly: the table and the gather buffers come from
// the run's scratch, so the force construct allocates nothing per call.
func TestNBFAllocationPin(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race runtime allocates a varying amount per coroutine switch")
			}
		}
	}
	run := func(iters int) float64 {
		cfg := smallNBF()
		cfg.Iters = iters
		return testing.AllocsPerRun(3, func() {
			if _, err := RunNBF(newRT(t, 4, 4, false), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perIter := (run(10) - run(2)) / 8; perIter > 68.25 {
		t.Errorf("an NBF iteration on 4 procs allocates %v times, want <= 68.25", perIter)
	}
}

// TestNBFPartnerListsStraddlePages runs the force body's in-place
// partner lists where they break across pages: an odd Partners pads
// the stride (11 partners in a stride of 12, which does not divide the
// 1024 int32s of a page), and 1041 partners (a stride of 1042) put
// every list across one page break and some across two. Three
// processes put the block boundaries on odd atoms. Every run must
// equal NBFReference bit for bit.
func TestNBFPartnerListsStraddlePages(t *testing.T) {
	const perPage = page.Size / 4
	for _, c := range []struct{ atoms, partners, iters int }{{4096, 11, 3}, {192, 1041, 2}} {
		cfg := DefaultNBF()
		cfg.Atoms, cfg.Partners, cfg.Iters = c.atoms, c.partners, c.iters
		stride := c.partners + c.partners%2
		straddles, twice := 0, 0
		for i := 0; i < c.atoms; i++ {
			breaks := (i*stride+c.partners-1)/perPage - i*stride/perPage
			if breaks > 0 {
				straddles++
			}
			if breaks > 1 {
				twice++
			}
		}
		if straddles == 0 || (c.partners > perPage && twice == 0) {
			t.Fatalf("%+v: %d lists straddle a page break, %d two: the case misses its point", c, straddles, twice)
		}
		want := NBFReference(cfg)
		for _, procs := range []int{1, 3} {
			for _, proto := range []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC} {
				rt, err := omp.New(omp.Config{Hosts: 4, Procs: procs, Protocol: proto})
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunNBF(rt, cfg)
				if err != nil {
					t.Fatalf("%+v on %d procs, %s: %v", c, procs, proto, err)
				}
				if res.Checksum != want {
					t.Errorf("%+v on %d procs, %s: checksum %v, want %v", c, procs, proto, res.Checksum, want)
				}
			}
		}
	}
}
