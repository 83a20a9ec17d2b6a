package page

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Mask is the set of words of a page that differ between its twin and
// its current contents: bit w%64 of lane w/64 is set when word w
// changed. It is a 64-byte value that lives on the stack; everything
// the protocols need from a diff — its wire size, its first overlap
// with another writer's, and its application — derives from the mask
// and the writer's live page, so a payload is only materialised (Pack)
// where a diff outlives the interval close that made it.
type Mask [Words / 64]uint64

// groupWords is how many words scanGo compares per step: it loads them
// through a fixed-size array pointer, so one length check covers all
// the loads, and a group with no difference costs a single test.
const groupWords = 8

// Scan compares current against twin as 8-byte words in one pass and
// returns the mask of the words that differ. Both slices must be
// exactly one page; they need no alignment. The pass is scanPage: SSE2
// assembly on amd64 (scan_amd64.s), scanGo elsewhere.
func Scan(twin, current []byte) Mask {
	mustPage(twin)
	mustPage(current)
	var m Mask
	scanPage(&m, (*[Size]byte)(twin), (*[Size]byte)(current))
	return m
}

// scanGo is Scan as a Go loop: the implementation off amd64 and the
// oracle the assembly is tested against (its loads are
// encoding/binary's, which compile to plain unaligned moves).
func scanGo(twin, current []byte) Mask {
	mustPage(twin)
	mustPage(current)
	tp, cp := (*[Size]byte)(twin), (*[Size]byte)(current)
	var m Mask
	for g := 0; g < Words/groupWords; g++ {
		t := (*[groupWords * WordBytes]byte)(tp[g*groupWords*WordBytes:])
		c := (*[groupWords * WordBytes]byte)(cp[g*groupWords*WordBytes:])
		x0 := word(t, 0) ^ word(c, 0)
		x1 := word(t, 1) ^ word(c, 1)
		x2 := word(t, 2) ^ word(c, 2)
		x3 := word(t, 3) ^ word(c, 3)
		x4 := word(t, 4) ^ word(c, 4)
		x5 := word(t, 5) ^ word(c, 5)
		x6 := word(t, 6) ^ word(c, 6)
		x7 := word(t, 7) ^ word(c, 7)
		if x0|x1|x2|x3|x4|x5|x6|x7 == 0 {
			continue
		}
		b := nonzero(x0) | nonzero(x1)<<1 | nonzero(x2)<<2 | nonzero(x3)<<3 |
			nonzero(x4)<<4 | nonzero(x5)<<5 | nonzero(x6)<<6 | nonzero(x7)<<7
		m[g/groupWords] |= b << (uint(g%groupWords) * groupWords)
	}
	return m
}

// word loads the w-th word of a group.
func word(b *[groupWords * WordBytes]byte, w int) uint64 {
	return binary.LittleEndian.Uint64(b[w*WordBytes : (w+1)*WordBytes])
}

// nonzero returns 1 if x != 0 and 0 otherwise, without a branch.
func nonzero(x uint64) uint64 { return (x | -x) >> 63 }

// Empty reports whether no word changed.
func (m *Mask) Empty() bool {
	var any uint64
	for _, lane := range m {
		any |= lane
	}
	return any == 0
}

// UnitBytes is the granularity of a write-once span's claims and
// change reports: the 4-byte element, half a word.
const UnitBytes = 4

// Units is a set of a page's 4-byte units, bit u%64 of lane u/64 for
// unit u: a write-once span's claims, or the units it reported
// changed, which Words folds into the diff mask a twin scan would give
// (see dsm.Host.WriteSpanOnce).
type Units [Size / UnitBytes / 64]uint64

// Claim adds units [lo,hi) to the set. If one of them is already in
// it, Claim returns that unit and false, and what it added up to there
// is unspecified.
func (s *Units) Claim(lo, hi int) (int, bool) {
	if lo < 0 || hi > Size/UnitBytes {
		panic(fmt.Sprintf("page: units [%d,%d) outside a page of %d", lo, hi, Size/UnitBytes))
	}
	if lo >= hi {
		return 0, true
	}
	first, last := lo>>6, (hi-1)>>6
	m := ^uint64(0) << uint(lo&63) // the current lane's units in [lo,hi)
	for l := first; l <= last; l++ {
		if l == last {
			m &= ^uint64(0) >> uint(63-(hi-1)&63)
		}
		if s[l]&m != 0 {
			return l<<6 | bits.TrailingZeros64(s[l]&m), false
		}
		s[l] |= m
		m = ^uint64(0)
	}
	return 0, true
}

// Set adds unit u to the set.
func (s *Units) Set(u int) { s[u>>6] |= 1 << uint(u&63) }

// Words returns the mask of the words holding a unit of the set.
func (s *Units) Words() Mask {
	var m Mask
	for i := range m {
		m[i] = uint64(foldPairs(s[2*i])) | uint64(foldPairs(s[2*i+1]))<<32
	}
	return m
}

// ClearWords removes from the set both units of every word of m.
func (s *Units) ClearWords(m *Mask) {
	for i, lane := range m {
		s[2*i] &^= spreadPairs(uint32(lane))
		s[2*i+1] &^= spreadPairs(uint32(lane >> 32))
	}
}

// foldPairs returns the 32 bits whose bit i is set when bit 2i or bit
// 2i+1 of x is.
func foldPairs(x uint64) uint32 {
	x = (x | x>>1) & 0x5555555555555555
	switch x {
	case 0:
		return 0
	case 0x5555555555555555: // every word: the common dense case
		return ^uint32(0)
	}
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// spreadPairs is foldPairs' inverse: bit i of x sets bits 2i and
// 2i+1.
func spreadPairs(x uint32) uint64 {
	y := uint64(x)
	y = (y | y<<16) & 0x0000ffff0000ffff
	y = (y | y<<8) & 0x00ff00ff00ff00ff
	y = (y | y<<4) & 0x0f0f0f0f0f0f0f0f
	y = (y | y<<2) & 0x3333333333333333
	y = (y | y<<1) & 0x5555555555555555
	return y | y<<1
}

// runHeaderBytes is the wire size of a run header: word index plus word
// count, two bytes each (TreadMarks encodes diffs as lists of maximal
// runs of modified words).
const runHeaderBytes = 4

// DataBytes returns the number of payload bytes the mask selects.
func (m *Mask) DataBytes() int {
	n := 0
	for _, lane := range m {
		n += bits.OnesCount64(lane)
	}
	return n * WordBytes
}

// WireSize returns the encoded size in bytes of the diff the mask
// describes: payload plus a header per maximal run plus a fixed diff
// header, zero for an empty mask. This is what the network is charged
// when the diff travels. A run starts at every set bit whose
// predecessor (carried across lanes) is clear.
func (m *Mask) WireSize() int {
	words, runs := 0, 0
	var carry uint64
	for _, lane := range m {
		words += bits.OnesCount64(lane)
		runs += bits.OnesCount64(lane &^ (lane<<1 | carry))
		carry = lane >> 63
	}
	if words == 0 {
		return 0
	}
	return runHeaderBytes + runs*runHeaderBytes + words*WordBytes
}

// FirstOverlap returns the lowest word index set in both masks, and
// whether one exists. The DSM's word-race diagnostics use it to name
// the conflicting word in their panic messages.
func (m *Mask) FirstOverlap(o *Mask) (int, bool) {
	for i := range m {
		if common := m[i] & o[i]; common != 0 {
			return i<<6 | bits.TrailingZeros64(common), true
		}
	}
	return 0, false
}

// eachRun calls f with the byte range [lo, hi) of every run of set
// bits, in ascending order. Runs are split at lane boundaries, which
// no caller minds: they only copy.
func (m *Mask) eachRun(f func(lo, hi int)) {
	for i, lane := range m {
		base := i * 64
		for lane != 0 {
			start := bits.TrailingZeros64(lane)
			n := bits.TrailingZeros64(^(lane >> uint(start))) // 64 when the run reaches the lane's end
			f((base+start)*WordBytes, (base+start+n)*WordBytes)
			if start+n >= 64 {
				break
			}
			lane &^= (1<<uint(n) - 1) << uint(start)
		}
	}
}

// Copy writes the masked words of src into dst; both must be exactly
// one page. With src the writer's live page this is the whole of
// "apply the diff at the home", with no intermediate payload.
func (m *Mask) Copy(dst, src []byte) {
	mustPage(dst)
	mustPage(src)
	m.eachRun(func(lo, hi int) { copy(dst[lo:hi], src[lo:hi]) })
}

// Pack materialises the diff: the masked words of src (exactly one
// page), concatenated in ascending order into one buffer.
func (m *Mask) Pack(src []byte) *Diff {
	d := &Diff{payload: make([]byte, m.DataBytes())}
	d.pack(m, src)
	return d
}

// pack fills d, whose payload is already m.DataBytes() long, with the
// mask and the masked words of src.
func (d *Diff) pack(m *Mask, src []byte) {
	mustPage(src)
	d.Mask = *m
	off := 0
	m.eachRun(func(lo, hi int) { off += copy(d.payload[off:], src[lo:hi]) })
}

// diffClasses is the number of payload size classes a DiffPool keeps:
// class k holds payloads of capacity WordBytes<<k, from one word to a
// page.
const diffClasses = 10

// diffClass returns the smallest class whose capacity holds n bytes.
func diffClass(n int) int {
	return bits.Len(uint(max(n, 1)-1) / WordBytes)
}

// DiffPool is a single-owner recycler of packed diffs, by payload size
// class: a diff retained for a bounded time (a hybrid home's window)
// goes back to the pool when it is dropped, and the next Pack of its
// class reuses the header and the payload buffer. Like Freelist it has
// no synchronisation: its owner's events are serialised. The zero value
// is an empty pool.
type DiffPool struct {
	free [diffClasses][]*Diff
}

// Pack is Mask.Pack into a recycled diff when one of the payload's
// class is free.
func (p *DiffPool) Pack(m *Mask, src []byte) *Diff {
	n := m.DataBytes()
	k := diffClass(n)
	var d *Diff
	if fl := p.free[k]; len(fl) > 0 {
		d = fl[len(fl)-1]
		p.free[k] = fl[:len(fl)-1]
	} else {
		d = &Diff{payload: make([]byte, 0, WordBytes<<k)}
	}
	d.payload = d.payload[:n]
	d.pack(m, src)
	return d
}

// Release returns a diff the pool packed to it; nil is a no-op. The
// caller must hold the only remaining reference.
func (p *DiffPool) Release(d *Diff) {
	if d == nil {
		return
	}
	k := diffClass(cap(d.payload))
	p.free[k] = append(p.free[k], d)
}

// Diff is a materialised diff: the mask of modified words and their
// new contents, packed. A nil *Diff is an empty diff. Diffs are
// immutable once made and may be shared between hosts.
type Diff struct {
	Mask    Mask
	payload []byte
}

// Make scans current against twin and returns their diff, or nil if
// the page is unchanged. Both slices must be exactly one page.
func Make(twin, current []byte) *Diff {
	m := Scan(twin, current)
	if m.Empty() {
		return nil
	}
	return m.Pack(current)
}

// Apply writes the diff's words into dst, which must be exactly one
// page. Applying diffs from concurrent writers of a race-free program
// is order-independent because their modified words are disjoint;
// applying diffs from successive intervals must happen in interval
// order.
func (d *Diff) Apply(dst []byte) {
	mustPage(dst)
	if d == nil {
		return
	}
	off := 0
	d.Mask.eachRun(func(lo, hi int) { off += copy(dst[lo:hi], d.payload[off:]) })
}

// WireSize returns the encoded size of the diff in bytes (see
// Mask.WireSize); a nil diff has none.
func (d *Diff) WireSize() int {
	if d == nil {
		return 0
	}
	return d.Mask.WireSize()
}

// Overlaps reports whether two diffs modify any common word. Race-free
// programs produce non-overlapping diffs within one interval; the DSM
// asserts this in tests.
func (d *Diff) Overlaps(o *Diff) bool {
	if d == nil || o == nil {
		return false
	}
	_, ok := d.Mask.FirstOverlap(&o.Mask)
	return ok
}
