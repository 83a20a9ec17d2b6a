package shmem

import (
	"fmt"
	"unsafe"

	"nowomp/internal/dsm"
	"nowomp/internal/page"
)

// Typed spans: the one way this package touches page memory. A region
// holds its elements as little-endian bit patterns (see Element), so on
// a little-endian host a []byte page span *is* a valid []T when
// reinterpreted in place: no per-element conversion, no staging
// buffer, just loads and stores at memory speed. Three properties make
// the reinterpretation sound:
//
//   - layout: the region's byte order equals the host's. nativeLE
//     observes it once at init and Alloc, the only constructor of a
//     view, refuses a host where it does not hold — so no accessor
//     re-checks it;
//   - alignment: page buffers are whole heap-allocated 4 KB blocks, so
//     they are at least 8-byte aligned — the natural alignment of every
//     Element type (complex128 aligns to 8 in Go) — and spans start at
//     element-aligned in-page offsets because regions begin at offset 0
//     and page.Size is a multiple of every element size;
//   - straddling: for the same reason an element never crosses a page
//     boundary, so a span is always a whole number of elements.
var nativeLE = func() bool {
	x := uint32(0x01020304)
	return *(*byte)(unsafe.Pointer(&x)) == 0x04
}()

// typedSpan reinterprets an element-aligned byte span as a []T of
// len(b)/Sizeof[T]() elements, in place.
func typedSpan[T Element](b []byte) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/Sizeof[T]())
}

// ReadSpan makes elements [lo,hi) readable and returns a typed
// zero-copy view of the longest in-page run starting at lo, clamped to
// hi: the span-level kernel fast path. Callers loop, advancing lo by
// len(span), exactly like the byte-level dsm.Host.ReadSpan underneath.
// The view aliases page memory and is valid only until the next
// operation on the host; callers must not retain it across accesses,
// faults or synchronisation.
func (a *Array[T]) ReadSpan(m Context, lo, hi int) []T {
	mustContext(m)
	a.check(lo, hi)
	if lo == hi {
		return nil
	}
	elem := Sizeof[T]()
	return typedSpan[T](m.Host.ReadSpan(a.region.ID, lo*elem, (hi-lo)*elem, m.Clock))
}

// WriteSpan makes elements [lo,hi) writable (faulted in and twinned)
// and returns a typed zero-copy view of the longest in-page run
// starting at lo, clamped to hi, for in-place read-modify-write: the
// view holds the elements' current values. Same aliasing rules as
// ReadSpan.
func (a *Array[T]) WriteSpan(m Context, lo, hi int) []T {
	mustContext(m)
	a.check(lo, hi)
	if lo == hi {
		return nil
	}
	elem := Sizeof[T]()
	return typedSpan[T](m.Host.WriteSpan(a.region.ID, lo*elem, (hi-lo)*elem, m.Clock))
}

// WriteSpanOnce is WriteSpan for a writer that stores each element of
// [lo,hi) at most once in the open interval, compares each value it
// stores with the bits it replaces, and reports the elements whose
// bits changed through the returned Changes, counting from the span's
// first element: the page then carries that report as its diff mask
// instead of a twin (see dsm.Host.WriteSpanOnce, which also says when
// it panics). The view holds the elements' current values; the same
// aliasing rules as ReadSpan apply, and the Changes stays usable until
// the interval closes. T must be a 4- or 8-byte element type.
func (a *Array[T]) WriteSpanOnce(m Context, lo, hi int) ([]T, Changes) {
	mustContext(m)
	a.check(lo, hi)
	elem := Sizeof[T]()
	if elem != 4 && elem != 8 {
		panic(fmt.Sprintf("shmem: write-once span of %d-byte elements; want 4 or 8", elem))
	}
	if lo == hi {
		return nil, Changes{}
	}
	b, ch := m.Host.WriteSpanOnce(a.region.ID, lo*elem, (hi-lo)*elem, elem, m.Clock)
	return typedSpan[T](b), ch
}

// Changes is a write-once span's change report (see
// Array.WriteSpanOnce).
type Changes = dsm.Changes

// ReadRowSpan is ReadSpan over row i columns [jlo,jhi).
func (mx *Matrix[T]) ReadRowSpan(m Context, i, jlo, jhi int) []T {
	mx.checkCols(i, jlo, jhi)
	return mx.arr.ReadSpan(m, i*mx.cols+jlo, i*mx.cols+jhi)
}

// WriteRowSpan is WriteSpan over row i columns [jlo,jhi).
func (mx *Matrix[T]) WriteRowSpan(m Context, i, jlo, jhi int) []T {
	mx.checkCols(i, jlo, jhi)
	return mx.arr.WriteSpan(m, i*mx.cols+jlo, i*mx.cols+jhi)
}

// WriteRowSpanOnce is WriteSpanOnce over row i columns [jlo,jhi).
func (mx *Matrix[T]) WriteRowSpanOnce(m Context, i, jlo, jhi int) ([]T, Changes) {
	mx.checkCols(i, jlo, jhi)
	return mx.arr.WriteSpanOnce(m, i*mx.cols+jlo, i*mx.cols+jhi)
}

// Reader is a reusable fault-aware random-access read view of one
// array: the irregular-access analogue of the span loops. Get resolves
// the element's page with shifts (element sizes and page.Size are
// powers of two), faults it in if the copy is missing or invalid —
// exactly when and only when Array.Get would — and loads the value
// straight from page memory. A Reader embeds the Context it was made
// with and is valid for the same process until the next
// synchronisation point (faults by *other* accessors are fine; the
// page table it indexes is stable for the region's lifetime).
type Reader[T Element] struct {
	pv    dsm.PageView
	n     int
	elem  int
	shift uint // log2(elements per page)
	mask  int  // elements per page - 1
}

// Reader returns a fault-aware random-access read view for the
// process named by m.
func (a *Array[T]) Reader(m Context) Reader[T] {
	mustContext(m)
	elem := Sizeof[T]()
	perPage := page.Size / elem
	shift := uint(0)
	for 1<<shift != perPage {
		shift++
	}
	return Reader[T]{
		pv:    m.Host.PageView(a.region.ID, m.Clock),
		n:     a.n,
		elem:  elem,
		shift: shift,
		mask:  perPage - 1,
	}
}

// Get reads element i through the view.
func (v *Reader[T]) Get(i int) T {
	if uint(i) >= uint(v.n) {
		panicIndex(i, v.n)
	}
	b := v.pv.ReadPage(i >> v.shift)
	// The mask keeps the offset strictly inside the 4 KB page ReadPage
	// returned, so the raw pointer add needs no bounds re-check.
	return *(*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), (i&v.mask)*v.elem))
}

func panicIndex(i, n int) {
	panic(fmt.Sprintf("shmem: index %d outside array of %d elements", i, n))
}

// Reader3 bundles three same-shape arrays — a structure-of-arrays
// vector field, like the nbf position components — into one
// fault-aware gather view over a page table. The first time Gather3
// meets a page it calls ReadPage on the first, second and third array
// in that order, faulting exactly when and in the order three Gets of
// that element would, and records the three pages' memory in the
// table; every later element on that page loads straight through the
// table, with no validity test.
//
// That is sound for one construct body and no longer: a page this
// process has made valid stays valid, with its memory in place, until
// the process next synchronises (only its own acquire or barrier
// invalidates a page, and a fault replaces the memory of the faulting
// page only). So a Reader3 must not outlive the body that made it.
type Reader3[T Element] struct {
	p0, p1, p2 dsm.PageView
	n          int
	elem       int
	shift      uint
	mask       int
	table      []PageRef
}

// PageRef is one entry of a Reader3's page table: the three arrays'
// memory of one page, nil until the page is first touched. A kernel
// keeps its tables in per-run scratch, so making a reader allocates
// nothing.
type PageRef struct {
	p0, p1, p2 unsafe.Pointer
}

// Readers3 returns a bundled gather view of three arrays of identical
// length. table must hold an entry for every page of an array
// (Array.Pages); Readers3 clears them, and the view uses them until the
// body that made it returns.
func Readers3[T Element](m Context, a0, a1, a2 *Array[T], table []PageRef) Reader3[T] {
	if a1.n != a0.n || a2.n != a0.n {
		panic(fmt.Sprintf("shmem: Readers3 needs equal lengths, got %d/%d/%d", a0.n, a1.n, a2.n))
	}
	np := a0.Pages()
	if len(table) < np {
		panic(fmt.Sprintf("shmem: Readers3 table has %d entries, arrays span %d pages", len(table), np))
	}
	table = table[:np]
	clear(table)
	r0 := a0.Reader(m)
	return Reader3[T]{
		p0:    r0.pv,
		p1:    m.Host.PageView(a1.region.ID, m.Clock),
		p2:    m.Host.PageView(a2.region.ID, m.Clock),
		n:     r0.n,
		elem:  r0.elem,
		shift: r0.shift,
		mask:  r0.mask,
		table: table,
	}
}

// Gather3 loads element idx[k] of the three arrays into xs[k], ys[k]
// and zs[k], for k in order. The outputs must be at least len(idx)
// long. An index outside the arrays panics before that element, and
// anything after it, is loaded — where the k-th Get would.
func (v *Reader3[T]) Gather3(idx []int32, xs, ys, zs []T) {
	xs, ys, zs = xs[:len(idx)], ys[:len(idx)], zs[:len(idx)]
	for k, j := range idx {
		i := int(j)
		if uint(i) >= uint(v.n) {
			panicIndex(i, v.n)
		}
		e := &v.table[i>>v.shift]
		if e.p0 == nil {
			v.resolve(i>>v.shift, e)
		}
		// The mask keeps the offset strictly inside the page, as in
		// Reader.Get.
		off := (i & v.mask) * v.elem
		xs[k] = *(*T)(unsafe.Add(e.p0, off))
		ys[k] = *(*T)(unsafe.Add(e.p1, off))
		zs[k] = *(*T)(unsafe.Add(e.p2, off))
	}
}

// resolve is a page's first touch: the three ReadPages, in array order.
//
//go:noinline
func (v *Reader3[T]) resolve(p int, e *PageRef) {
	e.p0 = unsafe.Pointer(unsafe.SliceData(v.p0.ReadPage(p)))
	e.p1 = unsafe.Pointer(unsafe.SliceData(v.p1.ReadPage(p)))
	e.p2 = unsafe.Pointer(unsafe.SliceData(v.p2.ReadPage(p)))
}
