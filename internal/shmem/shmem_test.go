package shmem

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

func testCluster(t testing.TB, hosts int) (*dsm.Cluster, []Context) {
	t.Helper()
	c, err := dsm.New(dsm.Config{MaxHosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]Context, hosts)
	ctxs[0] = Context{Host: c.Master(), Clock: simtime.NewClock(0)}
	for i := 1; i < hosts; i++ {
		if _, err := c.Join(dsm.HostID(i)); err != nil {
			t.Fatal(err)
		}
		ctxs[i] = Context{Host: c.Host(dsm.HostID(i)), Clock: simtime.NewClock(0)}
	}
	return c, ctxs
}

func syncAll(c *dsm.Cluster, ctxs []Context) {
	active := c.ActiveHosts()
	arr := make([]simtime.Seconds, len(active))
	for i, id := range active {
		arr[i] = ctxs[id].Clock.Now()
	}
	res := c.Barrier(active, arr)
	for _, id := range active {
		ctxs[id].Clock.AdvanceTo(res.ReleaseTime)
	}
}

func TestFloat64ArrayRoundTrip(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, err := Alloc[float64](c, "v", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i += 97 {
		a.Set(ctxs[0], i, float64(i)*1.5)
	}
	syncAll(c, ctxs)
	for i := 0; i < a.Len(); i += 97 {
		if got := a.Get(ctxs[1], i); got != float64(i)*1.5 {
			t.Fatalf("a[%d] = %g, want %g", i, got, float64(i)*1.5)
		}
	}
}

func TestFloat64SpecialValues(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, _ := Alloc[float64](c, "v", 8)
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, -1.25}
	a.WriteRange(ctxs[0], 0, vals)
	syncAll(c, ctxs)
	got := make([]float64, 8)
	a.ReadRange(ctxs[1], 0, 8, got)
	for i, want := range vals {
		if math.IsNaN(want) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("elem %d = %g, want NaN", i, got[i])
			}
			continue
		}
		if got[i] != want || math.Signbit(got[i]) != math.Signbit(want) {
			t.Fatalf("elem %d = %g, want %g", i, got[i], want)
		}
	}
}

func TestMatrixRows(t *testing.T) {
	c, ctxs := testCluster(t, 3)
	mx, err := AllocMatrix[float64](c, "m", 20, 33)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, mx.Cols())
	for i := 0; i < mx.Rows(); i++ {
		for j := range row {
			row[j] = float64(i*1000 + j)
		}
		mx.WriteRow(ctxs[i%3], i, row)
	}
	syncAll(c, ctxs)
	got := make([]float64, mx.Cols())
	for i := 0; i < mx.Rows(); i++ {
		mx.ReadRow(ctxs[(i+1)%3], i, got)
		for j := range got {
			if got[j] != float64(i*1000+j) {
				t.Fatalf("m[%d][%d] = %g, want %d", i, j, got[j], i*1000+j)
			}
		}
	}
	if mx.Get(ctxs[0], 7, 13) != 7013 {
		t.Fatal("Get(7,13) wrong")
	}
	mx.Set(ctxs[0], 7, 13, -1)
	if mx.Get(ctxs[0], 7, 13) != -1 {
		t.Fatal("Set(7,13) did not stick")
	}
}

func TestComplexArray(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, err := Alloc[complex128](c, "z", 256)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]complex128, 256)
	for i := range src {
		src[i] = complex(float64(i), -float64(i)/3)
	}
	a.WriteRange(ctxs[0], 0, src)
	syncAll(c, ctxs)
	dst := make([]complex128, 256)
	a.ReadRange(ctxs[1], 0, 256, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("z[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
	a.Set(ctxs[1], 3, 5+7i)
	if got := a.Get(ctxs[1], 3); got != 5+7i {
		t.Fatalf("Get(3) = %v, want 5+7i", got)
	}
}

func TestInt32Array(t *testing.T) {
	c, ctxs := testCluster(t, 2)
	a, err := Alloc[int32](c, "idx", 513)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int32, 513)
	for i := range src {
		src[i] = int32(i*3 - 700)
	}
	a.WriteRange(ctxs[0], 0, src)
	syncAll(c, ctxs)
	dst := make([]int32, 513)
	a.ReadRange(ctxs[1], 0, 513, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("idx[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	if got := a.Get(ctxs[1], 512); got != src[512] {
		t.Fatalf("Get(512) = %d", got)
	}
}

func TestBoundsPanics(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	a, _ := Alloc[float64](c, "v", 10)
	mx, _ := AllocMatrix[float64](c, "m", 4, 4)
	short, _ := Alloc[float64](c, "short", 9)
	rd := a.Reader(ctxs[0])
	table := make([]PageRef, a.Pages())
	rd3 := Readers3(ctxs[0], a, a, a, table)
	one := make([]float64, 1)
	cases := []func(){
		func() { a.Get(ctxs[0], 10) },
		func() { a.Set(ctxs[0], -1, 0) },
		func() { a.ReadRange(ctxs[0], 5, 11, make([]float64, 6)) },
		func() { a.ReadRange(ctxs[0], 0, 5, make([]float64, 4)) },
		func() { mx.Get(ctxs[0], 4, 0) },
		func() { mx.WriteRow(ctxs[0], 0, make([]float64, 3)) },
		func() { a.Get(Context{}, 0) },
		func() { a.ReadSpan(ctxs[0], 5, 11) },
		func() { a.WriteSpan(ctxs[0], -1, 2) },
		func() { mx.ReadRowSpan(ctxs[0], 0, 2, 5) },
		func() { mx.WriteRowSpan(ctxs[0], 4, 0, 1) },
		func() { mx.ReadRowRange(ctxs[0], 0, 3, 2, nil) },
		func() { mx.WriteRowRange(ctxs[0], 0, 3, make([]float64, 2)) },
		func() { rd.Get(10) },
		func() { rd.Get(-1) },
		func() { rd3.Gather3([]int32{10}, one, one, one) },
		func() { rd3.Gather3([]int32{-1}, one, one, one) },
		func() { rd3.Gather3([]int32{0, 1}, one, one, one) }, // outputs too short
		func() { Readers3(ctxs[0], a, a, short, table) },
		func() { Readers3(ctxs[0], a, a, a, nil) }, // no table entry for page 0
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}

	// An empty span is in range anywhere up to and at the end of the
	// array, is empty, and faults nothing in.
	before := c.Stats().Snapshot()
	if s := a.ReadSpan(ctxs[0], 10, 10); len(s) != 0 {
		t.Fatalf("empty ReadSpan holds %d elements", len(s))
	}
	if s := a.WriteSpan(ctxs[0], 10, 10); len(s) != 0 {
		t.Fatalf("empty WriteSpan holds %d elements", len(s))
	}
	if d := c.Stats().Snapshot().Sub(before); d.ReadFaults+d.WriteFaults != 0 {
		t.Fatalf("empty spans faulted: %+v", d)
	}
}

func TestAllocErrors(t *testing.T) {
	c, _ := testCluster(t, 1)
	if _, err := Alloc[float64](c, "bad", 0); err == nil {
		t.Fatal("Alloc[float64](0) must fail")
	}
	if _, err := AllocMatrix[float64](c, "bad", 0, 5); err == nil {
		t.Fatal("AllocMatrix[float64](0,5) must fail")
	}
	if _, err := Alloc[complex128](c, "bad", -1); err == nil {
		t.Fatal("Alloc[complex128](-1) must fail")
	}
	if _, err := Alloc[int32](c, "bad", 0); err == nil {
		t.Fatal("Alloc[int32](0) must fail")
	}

	// A count whose byte size wraps int must be refused, not served by
	// the small region the wrapped product names: math.MaxInt/8+2
	// complex128s wrap to 16 bytes, and (math.MaxInt/2+2)*4 to 4, on a
	// 32-bit and on a 64-bit int alike.
	before := len(c.Regions())
	over := math.MaxInt/8 + 2
	for name, alloc := range map[string]func() error{
		"array": func() error { _, err := Alloc[complex128](c, "big", over); return err },
		"matrix, rows*cols*size wraps": func() error {
			_, err := AllocMatrix[complex128](c, "big", over, 1)
			return err
		},
		"matrix, rows*cols wraps": func() error {
			_, err := AllocMatrix[uint8](c, "big", math.MaxInt/2+2, 4)
			return err
		},
	} {
		if err := alloc(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s: err = %v, want an overflow error", name, err)
		}
	}
	if n := len(c.Regions()); n != before {
		t.Fatalf("refused allocations left %d regions behind", n-before)
	}
}

// TestAllocRefusesBigEndianHost reaches the one byte-order check the
// only way hardware that CI has can: by flipping the package's
// observation of the host. No view may come to exist there, because
// every accessor aliases page memory as the host's own []T.
func TestAllocRefusesBigEndianHost(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	nativeLE = false
	c, _ := testCluster(t, 1)
	_, err := Alloc[float64](c, "v", 8)
	if err == nil || !strings.Contains(err.Error(), "needs a little-endian host") {
		t.Fatalf("Alloc on a big-endian host: err = %v, want a refusal", err)
	}
	if _, err := AllocMatrix[int32](c, "m", 2, 2); err == nil {
		t.Fatal("AllocMatrix on a big-endian host must be refused too")
	}
	if n := len(c.Regions()); n != 0 {
		t.Fatalf("refused allocations left %d regions behind", n)
	}
}

// Property: WriteRange then ReadRange is the identity for arbitrary
// offsets and payloads (single host, no sync needed).
func TestFloat64RangeRoundTripProperty(t *testing.T) {
	c, ctxs := testCluster(t, 1)
	a, _ := Alloc[float64](c, "v", 2048)
	f := func(off uint16, raw []float64) bool {
		lo := int(off) % 1024
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		a.WriteRange(ctxs[0], lo, raw)
		got := make([]float64, len(raw))
		a.ReadRange(ctxs[0], lo, lo+len(raw), got)
		for i := range raw {
			if got[i] != raw[i] && !(math.IsNaN(got[i]) && math.IsNaN(raw[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved writers on disjoint stripes merge correctly
// through barriers.
func TestStripedWritersProperty(t *testing.T) {
	const n = 4096
	c, ctxs := testCluster(t, 4)
	a, _ := Alloc[float64](c, "v", n)
	rng := rand.New(rand.NewSource(99))
	ref := make([]float64, n)
	for round := 0; round < 5; round++ {
		for h := 0; h < 4; h++ {
			// Host h writes stripe h::4 — disjoint words, shared pages.
			for i := h; i < n; i += 4 {
				if rng.Intn(3) == 0 {
					v := rng.NormFloat64()
					ref[i] = v
					a.Set(ctxs[h], i, v)
				}
			}
		}
		syncAll(c, ctxs)
		for h := 0; h < 4; h++ {
			i := rng.Intn(n)
			if got := a.Get(ctxs[h], i); got != ref[i] {
				t.Fatalf("round %d host %d: a[%d] = %g, want %g", round, h, i, got, ref[i])
			}
		}
	}
}
