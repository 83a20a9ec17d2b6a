package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The naive reference: a byte-wise word comparison into a bool per
// word, and everything the codec derives from the mask recomputed from
// that, with no bit tricks.

func refChanged(tw, cur []byte) (ch [Words]bool) {
	for w := 0; w < Words; w++ {
		for b := w * WordBytes; b < (w+1)*WordBytes; b++ {
			if tw[b] != cur[b] {
				ch[w] = true
			}
		}
	}
	return ch
}

func refWireSize(ch *[Words]bool) int {
	words, runs := 0, 0
	for w := 0; w < Words; w++ {
		if !ch[w] {
			continue
		}
		words++
		if w == 0 || !ch[w-1] {
			runs++
		}
	}
	if words == 0 {
		return 0
	}
	return runHeaderBytes + runs*runHeaderBytes + words*WordBytes
}

func refFirstOverlap(a, b *[Words]bool) (int, bool) {
	for w := 0; w < Words; w++ {
		if a[w] && b[w] {
			return w, true
		}
	}
	return 0, false
}

func refCopy(ch *[Words]bool, dst, src []byte) {
	for w := 0; w < Words; w++ {
		if ch[w] {
			for b := w * WordBytes; b < (w+1)*WordBytes; b++ {
				dst[b] = src[b]
			}
		}
	}
}

// checkAgainstReference holds Scan, WireSize, FirstOverlap, Copy and
// Pack+Apply equal to the reference for one twin and two writers'
// pages. base is a third page the diffs are applied onto.
func checkAgainstReference(t *testing.T, tw, cur, other, base []byte) {
	t.Helper()
	ref := refChanged(tw, cur)
	m := Scan(tw, cur)
	for w := 0; w < Words; w++ {
		if got := m[w>>6]>>(uint(w)&63)&1 == 1; got != ref[w] {
			t.Fatalf("Scan: word %d changed = %v, reference says %v", w, got, ref[w])
		}
	}
	if got, want := m.WireSize(), refWireSize(&ref); got != want {
		t.Fatalf("WireSize = %d, reference %d", got, want)
	}
	if got, want := m.Empty(), refWireSize(&ref) == 0; got != want {
		t.Fatalf("Empty = %v, reference %v", got, want)
	}

	oref := refChanged(tw, other)
	om := Scan(tw, other)
	gw, gok := m.FirstOverlap(&om)
	ww, wok := refFirstOverlap(&ref, &oref)
	if gw != ww || gok != wok {
		t.Fatalf("FirstOverlap = (%d, %v), reference (%d, %v)", gw, gok, ww, wok)
	}

	want := append([]byte(nil), base...)
	refCopy(&ref, want, cur)
	got := append([]byte(nil), base...)
	m.Copy(got, cur)
	if !bytes.Equal(got, want) {
		t.Fatal("Mask.Copy differs from the reference copy")
	}
	d := m.Pack(cur)
	if len(d.payload) != m.DataBytes() || d.WireSize() != m.WireSize() {
		t.Fatalf("Pack: payload %d wire %d, mask says %d and %d", len(d.payload), d.WireSize(), m.DataBytes(), m.WireSize())
	}
	got = append(got[:0], base...)
	d.Apply(got)
	if !bytes.Equal(got, want) {
		t.Fatal("Pack+Apply differs from the reference copy")
	}
	if md := Make(tw, cur); (md == nil) != m.Empty() || (md != nil && (md.Mask != m || !bytes.Equal(md.payload, d.payload))) {
		t.Fatal("Make is not Scan+Pack")
	}
	var pool DiffPool
	for range 2 { // the second Pack reuses the diff the first released
		pd := pool.Pack(&m, cur)
		if pd.Mask != m || !bytes.Equal(pd.payload, d.payload) {
			t.Fatal("DiffPool.Pack is not Mask.Pack")
		}
		pool.Release(pd)
	}
}

// shapes are the modification patterns the property test draws from:
// each dirties cur relative to its twin.
var shapes = map[string]func(r *rand.Rand, cur []byte){
	"empty": func(*rand.Rand, []byte) {},
	"sparse": func(r *rand.Rand, cur []byte) {
		for i := 0; i < 1+r.Intn(8); i++ {
			cur[r.Intn(Size)] ^= byte(1 + r.Intn(255))
		}
	},
	"dense": func(r *rand.Rand, cur []byte) {
		for i := range cur {
			cur[i] ^= byte(1 + r.Intn(255))
		}
	},
	"runs": func(r *rand.Rand, cur []byte) {
		for i := 0; i < 1+r.Intn(6); i++ {
			lo := r.Intn(Words)
			hi := lo + 1 + r.Intn(Words-lo)
			for w := lo; w < hi; w++ {
				cur[w*WordBytes+r.Intn(WordBytes)] ^= 0x80
			}
		}
	},
	// A run crossing a lane boundary must count once on the wire, and
	// the last word has no successor lane.
	"lane-crossing": func(r *rand.Rand, cur []byte) {
		for _, w := range []int{63, 64, 127, 128, 129, 447, 448, 511} {
			if r.Intn(4) > 0 {
				cur[w*WordBytes+r.Intn(WordBytes)] ^= 1
			}
		}
	},
	"alternating": func(r *rand.Rand, cur []byte) {
		for w := r.Intn(2); w < Words; w += 2 {
			cur[w*WordBytes] ^= 1
		}
	},
}

// TestMaskMatchesReference is the seeded property test: every shape,
// aligned and misaligned (the page starting one byte into its buffer,
// so no 8-byte load is naturally aligned), against the reference.
func TestMaskMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1999))
	page := func(misaligned bool) []byte {
		buf := make([]byte, Size+1)
		if misaligned {
			return buf[1 : 1+Size]
		}
		return buf[:Size]
	}
	for name, dirty := range shapes {
		for _, misaligned := range []bool{false, true} {
			for round := 0; round < 40; round++ {
				tw, cur, other, base := page(misaligned), page(misaligned), page(misaligned), page(misaligned)
				r.Read(tw)
				r.Read(base)
				copy(cur, tw)
				copy(other, tw)
				dirty(r, cur)
				shapes["runs"](r, other)
				checkAgainstReference(t, tw, cur, other, base)
				if t.Failed() {
					t.Fatalf("shape %s misaligned=%v round %d", name, misaligned, round)
				}
			}
		}
	}
}

// FuzzMask drives the same comparison from fuzzer-chosen edits: each
// pair of bytes is (position, xor) into the first writer's page, each
// following pair into the second's.
func FuzzMask(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 255, 255}, []byte{0, 2})
	f.Add(bytes.Repeat([]byte{63, 7, 64, 9}, 8), bytes.Repeat([]byte{255, 1}, 3))
	f.Fuzz(func(t *testing.T, edits, otherEdits []byte) {
		buf := make([]byte, 4*Size+1)
		rand.New(rand.NewSource(int64(len(edits))<<16 | int64(len(otherEdits)))).Read(buf)
		off := len(edits) & 1 // odd-length inputs run misaligned
		tw := buf[off : off+Size]
		cur := buf[off+Size : off+2*Size]
		other := buf[off+2*Size : off+3*Size]
		base := buf[off+3*Size : off+4*Size]
		copy(cur, tw)
		copy(other, tw)
		apply := func(pg, e []byte) {
			for i := 0; i+1 < len(e); i += 2 {
				// Spread the 8-bit position over the page, lane
				// boundaries included.
				pg[(int(e[i])*Size/256+i/2)%Size] ^= e[i+1]
			}
		}
		apply(cur, edits)
		apply(other, otherEdits)
		checkAgainstReference(t, tw, cur, other, base)
	})
}

// TestUnitsMatchReference holds Units to a bool per unit: Set into a
// random set; Words against the words holding a set unit; ClearWords
// against clearing both units of each word; and Claim, at random
// ranges, against the units already claimed.
func TestUnitsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const units = Size / UnitBytes
	random := func() (s Units, ref [units]bool) {
		for i := range s {
			s[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		for u := range ref {
			ref[u] = s[u/64]>>(u%64)&1 != 0
		}
		return s, ref
	}
	check := func(what string, s *Units, ref *[units]bool) {
		t.Helper()
		for u := range ref {
			if got := s[u/64]>>(u%64)&1 != 0; got != ref[u] {
				t.Fatalf("%s: unit %d = %v, want %v", what, u, got, ref[u])
			}
		}
		m := s.Words()
		for w := 0; w < Words; w++ {
			if got, want := m[w/64]>>(w%64)&1 != 0, ref[2*w] || ref[2*w+1]; got != want {
				t.Fatalf("%s: Words() word %d = %v, want %v", what, w, got, want)
			}
		}
	}
	for u := 0; u < units; u += 37 {
		s, ref := random()
		s.Set(u)
		ref[u] = true
		check(fmt.Sprintf("Set(%d)", u), &s, &ref)
	}
	full, fullRef := random() // a lane of every unit folds by the fast path
	full[3] = ^uint64(0)
	for u := 3 * 64; u < 4*64; u++ {
		fullRef[u] = true
	}
	check("a full lane", &full, &fullRef)

	s, ref := random()
	var m Mask
	for i := range m {
		m[i] = rng.Uint64()
	}
	s.ClearWords(&m)
	for w := 0; w < Words; w++ {
		if m[w/64]>>(w%64)&1 != 0 {
			ref[2*w], ref[2*w+1] = false, false
		}
	}
	check("ClearWords", &s, &ref)

	for i := 0; i < 200; i++ {
		s, ref := random()
		if i%2 == 0 { // most claims of a real interval find no earlier one
			s, ref = Units{}, [units]bool{}
		}
		lo := rng.Intn(units)
		hi := lo + rng.Intn(units-lo+1)
		first, dup := -1, false
		for u := lo; u < hi; u++ {
			if ref[u] {
				first, dup = u, true
				break
			}
		}
		got, ok := s.Claim(lo, hi)
		if ok == dup || (dup && got != first) {
			t.Fatalf("Claim(%d, %d) = %d, %v; want the first claimed unit %d (claimed: %v)", lo, hi, got, ok, first, dup)
		}
		if ok {
			for u := lo; u < hi; u++ {
				ref[u] = true
			}
			check(fmt.Sprintf("Claim(%d, %d)", lo, hi), &s, &ref)
		}
	}

	for _, f := range []func(){
		func() { var s Units; s.Claim(units-1, units+1) },
		func() { var s Units; s.Claim(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a claim outside the page did not panic")
				}
			}()
			f()
		}()
	}
}
