// Package page implements the 4 KB shared-memory page primitives of the
// TreadMarks protocol: twins (pristine copies taken at the first write
// of an interval) and word-granularity diffs (the mask of the words
// that changed between a twin and the current page, plus their new
// contents where the diff has to be kept). Diffs are what make the
// multiple-writer protocol possible: two processes may modify disjoint
// words of the same page concurrently, and their diffs merge without
// conflict at the next synchronisation.
package page

import "fmt"

const (
	// Size is the shared-memory page size in bytes, matching the 4 KB
	// pages of the paper's FreeBSD/Pentium II testbed (Table 1 counts
	// transfers in 4 KB pages).
	Size = 4096

	// WordBytes is the diffing granularity. TreadMarks diffs at machine
	// word granularity; race-free programs never write the same word
	// from two processes in one interval, so word-granularity diffs
	// merge safely.
	WordBytes = 8

	// Words is the number of diffable words in a page.
	Words = Size / WordBytes
)

// Count returns the number of pages needed to hold the given byte size.
func Count(bytes int) int {
	if bytes < 0 {
		panic(fmt.Sprintf("page: negative region size %d", bytes))
	}
	return (bytes + Size - 1) / Size
}

func mustPage(b []byte) {
	if len(b) != Size {
		panic(fmt.Sprintf("page: got %d bytes, want exactly %d", len(b), Size))
	}
}

// Freelist is a single-owner page-buffer recycler: twins live for one
// interval and page copies are dropped at every refetch and garbage
// collection, so the DSM hot path would otherwise allocate a fresh
// 4 KB block per event — millions of times at full scale. A cluster
// whose events are serialised (the discrete-event engine runs exactly
// one process at a time) recycles through a plain stack, with no
// synchronisation. Recycling is invisible to the simulation — every
// recycled buffer handed out is immediately and fully overwritten (Copy
// copies a whole page, Zeroed clears) — so results stay bit-exact no
// matter which buffer comes back.
type Freelist struct {
	free []*[Size]byte
}

// get pops a recycled buffer, or allocates a fresh one (recycled
// false), which is already zero.
func (f *Freelist) get() (t *[Size]byte, recycled bool) {
	if n := len(f.free); n > 0 {
		t = f.free[n-1]
		f.free = f.free[:n-1]
		return t, true
	}
	return new([Size]byte), false
}

// Copy returns a recycled buffer holding a copy of the page: a twin
// (the pristine copy taken before the first write of an interval) or a
// fetched duplicate of a remote copy. The input must be exactly one
// page. Pass the buffer to Release when provably dropping the last
// reference.
func (f *Freelist) Copy(data []byte) []byte {
	mustPage(data)
	t, _ := f.get()
	copy(t[:], data)
	return t[:]
}

// Zeroed returns a zero-filled page. Only a recycled buffer is cleared:
// a fresh one comes zeroed from the allocator.
func (f *Freelist) Zeroed() []byte {
	t, recycled := f.get()
	if recycled {
		clear(t[:])
	}
	return t[:]
}

// Release returns a buffer to the freelist. nil is a no-op; so is a
// buffer of the wrong shape (a caller holding a foreign slice simply
// leaves it to the garbage collector). The caller must hold the only
// remaining reference.
func (f *Freelist) Release(b []byte) {
	if len(b) != Size || cap(b) != Size {
		return
	}
	f.free = append(f.free, (*[Size]byte)(b))
}
