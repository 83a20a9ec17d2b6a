package page

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func fill(b []byte, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Read(b)
}

// twin copies a page through a freelist, as the DSM does.
func twin(data []byte) []byte {
	var fl Freelist
	return fl.Copy(data)
}

func TestCount(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 0}, {1, 1}, {Size, 1}, {Size + 1, 2}, {10 * Size, 10}, {10*Size - 1, 10},
	}
	for _, c := range cases {
		if got := Count(c.bytes); got != c.want {
			t.Errorf("Count(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestCountNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Count(-1) must panic")
		}
	}()
	Count(-1)
}

func TestTwinIsIndependentCopy(t *testing.T) {
	p := make([]byte, Size)
	fill(p, 1)
	var fl Freelist
	tw := fl.Copy(p)
	if !bytes.Equal(tw, p) {
		t.Fatal("twin must equal page at creation")
	}
	p[0] ^= 0xff
	if bytes.Equal(tw, p) {
		t.Fatal("twin must be an independent copy")
	}
}

// TestFreelistZeroed: Zeroed hands out an all-zero page whether the
// buffer is fresh (an empty freelist, no clear) or recycled from a
// dirtied release.
func TestFreelistZeroed(t *testing.T) {
	zero := make([]byte, Size)
	var fl Freelist
	z := fl.Zeroed()
	if !bytes.Equal(z, zero) {
		t.Fatal("Zeroed from an empty freelist is not all zero")
	}
	fill(z, 3)
	fl.Release(z)
	r := fl.Zeroed()
	if &r[0] != &z[0] {
		t.Fatal("Zeroed did not recycle the released buffer")
	}
	if !bytes.Equal(r, zero) {
		t.Fatal("Zeroed after a dirtied release is not all zero")
	}
}

func TestMakeNilOnUnchanged(t *testing.T) {
	p := make([]byte, Size)
	fill(p, 2)
	if d := Make(twin(p), p); d != nil {
		t.Fatalf("diff of unchanged page = %v, want nil", d)
	}
}

func TestDiffRoundTrip(t *testing.T) {
	p := make([]byte, Size)
	fill(p, 3)
	tw := twin(p)
	// Scatter writes: single word, a run, and the last word.
	p[0] = ^p[0]
	for i := 100 * WordBytes; i < 140*WordBytes; i++ {
		p[i] ^= 0x55
	}
	p[Size-1] ^= 0x01

	d := Make(tw, p)
	if d == nil {
		t.Fatal("expected non-nil diff")
	}
	got := twin(tw) // fresh copy of the pristine page
	d.Apply(got)
	if !bytes.Equal(got, p) {
		t.Fatal("twin + diff != current page")
	}
}

func TestDiffRunCoalescing(t *testing.T) {
	p := make([]byte, Size)
	tw := twin(p)
	// Two adjacent words then a gap then one word: two runs on the wire.
	copy(p[0:16], bytes.Repeat([]byte{1}, 16))
	p[64*WordBytes] = 9
	d := Make(tw, p)
	if want := (Mask{0: 0b11, 1: 1}); d.Mask != want {
		t.Fatalf("mask = %x, want words 0, 1 and 64", d.Mask)
	}
	if d.Mask.DataBytes() != 3*WordBytes {
		t.Errorf("payload = %d bytes, want %d", d.Mask.DataBytes(), 3*WordBytes)
	}
	if want := runHeaderBytes + 2*runHeaderBytes + 3*WordBytes; d.WireSize() != want {
		t.Errorf("wire size = %d, want %d (two runs)", d.WireSize(), want)
	}
}

func TestWireSizeBounds(t *testing.T) {
	p := make([]byte, Size)
	tw := twin(p)
	for i := range p {
		p[i] = 0xaa
	}
	d := Make(tw, p)
	if d.Mask.DataBytes() != Size {
		t.Fatalf("full-page diff payload = %d, want %d", d.Mask.DataBytes(), Size)
	}
	if d.WireSize() != Size+2*runHeaderBytes {
		t.Fatalf("full-page diff wire size = %d, want %d", d.WireSize(), Size+2*runHeaderBytes)
	}
	if (*Diff)(nil).WireSize() != 0 {
		t.Fatal("nil diff must have zero wire size")
	}
}

func TestDisjointWritersMerge(t *testing.T) {
	base := make([]byte, Size)
	fill(base, 4)
	// Writer A modifies the first half, writer B the second half,
	// both starting from the same base (the multiple-writer scenario
	// on a partition-straddling page).
	a, b := twin(base), twin(base)
	for i := 0; i < Size/2; i++ {
		a[i] ^= 0x0f
	}
	for i := Size / 2; i < Size; i++ {
		b[i] ^= 0xf0
	}
	da := Make(twin(base), a)
	db := Make(twin(base), b)
	if da.Overlaps(db) {
		t.Fatal("disjoint writers must produce non-overlapping diffs")
	}
	m1 := twin(base)
	da.Apply(m1)
	db.Apply(m1)
	m2 := twin(base)
	db.Apply(m2)
	da.Apply(m2)
	if !bytes.Equal(m1, m2) {
		t.Fatal("disjoint diff application must be order-independent")
	}
	for i := 0; i < Size/2; i++ {
		if m1[i] != base[i]^0x0f {
			t.Fatalf("merged page wrong at %d", i)
		}
	}
	for i := Size / 2; i < Size; i++ {
		if m1[i] != base[i]^0xf0 {
			t.Fatalf("merged page wrong at %d", i)
		}
	}
}

func TestOverlapsDetectsConflict(t *testing.T) {
	base := make([]byte, Size)
	a, b := twin(base), twin(base)
	a[8] = 1
	b[9] = 2 // same word as a's write (word 1)
	da := Make(twin(base), a)
	db := Make(twin(base), b)
	if !da.Overlaps(db) {
		t.Fatal("same-word writers must overlap")
	}
}

// Property: for arbitrary mutations, twin+diff reconstructs the page
// and WireSize >= DataBytes.
func TestDiffReconstructionProperty(t *testing.T) {
	f := func(seed int64, writes []uint16) bool {
		p := make([]byte, Size)
		fill(p, seed)
		tw := twin(p)
		for _, w := range writes {
			p[int(w)%Size] ^= byte(w >> 8)
		}
		d := Make(tw, p)
		got := twin(tw)
		d.Apply(got)
		if !bytes.Equal(got, p) {
			return false
		}
		return d == nil || d.WireSize() >= d.Mask.DataBytes()
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: a diff exists exactly when the page changed, its payload
// is one word per mask bit, and its wire size lies between one run
// holding every word and one run per word.
func TestDiffShapeProperty(t *testing.T) {
	f := func(seed int64, writes []uint16) bool {
		p := make([]byte, Size)
		fill(p, seed)
		tw := twin(p)
		for _, w := range writes {
			p[int(w)%Size] ^= 0xff
		}
		d := Make(tw, p)
		if d == nil {
			return bytes.Equal(tw, p)
		}
		words := 0
		for _, lane := range d.Mask {
			words += bits.OnesCount64(lane)
		}
		if words == 0 || d.Mask.DataBytes() != words*WordBytes {
			return false
		}
		wire := d.WireSize()
		return wire >= 2*runHeaderBytes+d.Mask.DataBytes() && wire <= runHeaderBytes+words*(runHeaderBytes+WordBytes)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// benchPage returns a twin and a current page with every step-th word
// modified (step 64: sparse, one word per mask lane; step 1: dense).
func benchPage(seed int64, step int) (tw, cur []byte) {
	cur = make([]byte, Size)
	fill(cur, seed)
	tw = twin(cur)
	for w := 0; w < Words; w += step {
		cur[w*WordBytes] ^= 1
	}
	return tw, cur
}

var (
	sinkMask Mask
	sinkDiff *Diff
)

func BenchmarkScanSparse(b *testing.B) {
	tw, p := benchPage(7, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMask = Scan(tw, p)
	}
}

func BenchmarkScanDense(b *testing.B) {
	tw, p := benchPage(7, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMask = Scan(tw, p)
	}
}

// BenchmarkMaskCopyDense is the home-based close: scan, price, apply
// straight from the writer's page.
func BenchmarkMaskCopyDense(b *testing.B) {
	tw, p := benchPage(7, 1)
	dst := twin(tw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := Scan(tw, p)
		if m.WireSize() == 0 {
			b.Fatal("empty mask")
		}
		m.Copy(dst, p)
	}
}

// BenchmarkMakeSparse and BenchmarkMakeDense are the retained diff
// (Scan + Pack), as Tmk's chains and hybrid's windows keep it.
func BenchmarkMakeSparse(b *testing.B) {
	tw, p := benchPage(7, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDiff = Make(tw, p)
	}
}

func BenchmarkMakeDense(b *testing.B) {
	tw, p := benchPage(7, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkDiff = Make(tw, p)
	}
}

func BenchmarkDiffApplyFull(b *testing.B) {
	tw, p := benchPage(8, 1)
	d := Make(tw, p)
	dst := twin(tw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Apply(dst)
	}
}

func BenchmarkMaskFirstOverlap(b *testing.B) {
	p := make([]byte, Size)
	fill(p, 9)
	// Two moderately dense writers with one common word near the end:
	// the walk has to cover most of the mask before it hits.
	a := append([]byte(nil), p...)
	for i := 0; i < Size; i += 64 {
		a[i] ^= 1
	}
	c := append([]byte(nil), p...)
	for i := 32; i < Size; i += 64 {
		c[i] ^= 1
	}
	a[Size-8] ^= 1
	c[Size-8] ^= 1
	ma, mc := Scan(p, a), Scan(p, c)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ma.FirstOverlap(&mc); !ok {
			b.Fatal("expected an overlap")
		}
	}
}

// TestHotPathAllocationPins pins the allocation counts of the codec
// hot paths, so an accidental heap escape (the mask leaving the stack,
// a run callback boxed) fails loudly instead of surfacing as a GC
// regression in the bench matrix.
func TestHotPathAllocationPins(t *testing.T) {
	tw, mod := benchPage(10, 16)
	other := append([]byte(nil), tw...)
	for i := 64; i < Size; i += 128 {
		other[i] ^= 1
	}
	dst := twin(tw)
	d := Make(tw, mod)
	od := Make(tw, other)

	pins := []struct {
		name string
		max  float64
		f    func()
	}{
		{"Scan", 0, func() { sinkMask = Scan(tw, mod) }},
		{"Mask.WireSize", 0, func() { m := Scan(tw, mod); _ = m.WireSize() }},
		{"Mask.FirstOverlap", 0, func() { a, b := Scan(tw, mod), Scan(tw, other); a.FirstOverlap(&b) }},
		{"Mask.Copy", 0, func() { m := Scan(tw, mod); m.Copy(dst, mod) }},
		{"Diff.Apply", 0, func() { d.Apply(dst) }},
		{"Diff.Overlaps", 0, func() { d.Overlaps(od) }},
		// A materialised diff is its header and one payload buffer.
		{"Make", 2, func() { sinkDiff = Make(tw, mod) }},
	}
	for _, pin := range pins {
		if n := testing.AllocsPerRun(200, pin.f); n > pin.max {
			t.Errorf("%s allocates %v times per run, want <= %v", pin.name, n, pin.max)
		}
	}
}
