package shmem

import (
	"fmt"
	"math"
	"unsafe"

	"nowomp/internal/dsm"
)

// Element is the set of element types a shared view can hold. A
// region holds its elements packed, each as its little-endian bit
// pattern (a complex128 as real half then imaginary half): the
// checkpoint file format, pinned by TestRegionBytesAreLittleEndian,
// and the layout the typed spans of span.go alias in place.
//
// Caution: diffs merge at 8-byte word granularity, so for element
// types smaller than a word two processes must not write within the
// same word in one interval. Row-partitioned matrices whose rows are
// a multiple of 8 bytes (even float32/int32 rows, 8-aligned uint8
// rows) satisfy this.
type Element interface {
	float32 | float64 | complex128 | int32 | int64 | uint8
}

// Sizeof returns the byte size of T's shared-memory representation.
func Sizeof[T Element]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Array is a shared vector of T backed by one DSM region. The same
// handle is shared by all processes (the Tmk_distribute idiom); faults
// and costs accrue to the accessing process named by the Context.
//
// Word granularity: diffs merge at 8-byte words (page.WordBytes), so
// for element types smaller than a word — float32, int32, uint8 — two
// processes must not write within the same 8-byte span in one
// interval, or one update is lost. Partition concurrent writers on
// boundaries that are multiples of 8 bytes (for float32, even element
// indices; for uint8, multiples of 8). The DSM turns a violation into
// a panic at the interval close rather than silent corruption.
type Array[T Element] struct {
	region *dsm.Region
	n      int
}

// Alloc allocates a shared vector of n elements of T. Master-only,
// before the first fork, like Tmk_malloc. It is the one constructor of
// an Array (AllocMatrix goes through it), so the byte-order check here
// covers every accessor.
func Alloc[T Element](c *dsm.Cluster, name string, n int) (*Array[T], error) {
	if !nativeLE {
		return nil, fmt.Errorf("shmem: array %q: shared memory needs a little-endian host: views alias page memory, whose layout is little-endian", name)
	}
	if n <= 0 {
		return nil, fmt.Errorf("shmem: array %q must have positive length, got %d", name, n)
	}
	elem := Sizeof[T]()
	if n > math.MaxInt/elem {
		return nil, fmt.Errorf("shmem: array %q of %d %d-byte elements overflows the region size", name, n, elem)
	}
	r, err := c.Alloc(name, n*elem)
	if err != nil {
		return nil, err
	}
	return &Array[T]{region: r, n: n}, nil
}

// Len returns the number of elements.
func (a *Array[T]) Len() int { return a.n }

// Region exposes the backing region (checkpoint and test hook).
func (a *Array[T]) Region() *dsm.Region { return a.region }

// Pages returns the number of DSM pages the array spans.
func (a *Array[T]) Pages() int { return a.region.NPages }

func (a *Array[T]) check(lo, hi int) {
	if lo < 0 || hi > a.n || lo > hi {
		panic(fmt.Sprintf("shmem: range [%d,%d) outside array %q of %d elements",
			lo, hi, a.region.Name, a.n))
	}
}

// Get reads element i: a one-element span, so it faults exactly when
// a span over i would. An element never straddles a page: arrays start
// at region offset 0 and the page size is a multiple of every element
// size.
func (a *Array[T]) Get(m Context, i int) T { return a.ReadSpan(m, i, i+1)[0] }

// Set writes element i.
func (a *Array[T]) Set(m Context, i int, v T) { a.WriteSpan(m, i, i+1)[0] = v }

// ReadRange copies elements [lo,hi) into dst, which must have length
// hi-lo. Bulk accessors amortise the page-granularity fault checks
// over the whole range, which is how compiled OpenMP loop bodies
// access shared arrays; the copy runs page by page straight out of
// page memory, with no staging buffer in between.
func (a *Array[T]) ReadRange(m Context, lo, hi int, dst []T) {
	mustContext(m)
	a.check(lo, hi)
	if len(dst) != hi-lo {
		panic(fmt.Sprintf("shmem: dst has %d elements, want %d", len(dst), hi-lo))
	}
	for len(dst) > 0 {
		k := copy(dst, a.ReadSpan(m, lo, hi))
		dst = dst[k:]
		lo += k
	}
}

// WriteRange copies src into elements [lo, lo+len(src)), page by page
// straight into page memory.
func (a *Array[T]) WriteRange(m Context, lo int, src []T) {
	mustContext(m)
	a.check(lo, lo+len(src))
	for len(src) > 0 {
		k := copy(a.WriteSpan(m, lo, lo+len(src)), src)
		src = src[k:]
		lo += k
	}
}

// Matrix is a shared row-major rows x cols matrix of T.
//
// Word granularity: like Array, concurrent writers must stay 8 bytes
// apart within one interval. Row-partitioned access satisfies this
// whenever a row's byte width is a multiple of 8 — any float64 or
// complex128 matrix, float32/int32 matrices with even column counts,
// uint8 matrices with columns a multiple of 8. Other widths make rows
// share words across row boundaries; the DSM flags such concurrent
// writes at the interval close.
type Matrix[T Element] struct {
	arr  Array[T]
	rows int
	cols int
}

// AllocMatrix allocates a shared rows x cols matrix of T.
func AllocMatrix[T Element](c *dsm.Cluster, name string, rows, cols int) (*Matrix[T], error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("shmem: matrix %q needs positive dims, got %dx%d", name, rows, cols)
	}
	if rows > math.MaxInt/cols {
		return nil, fmt.Errorf("shmem: matrix %q of %dx%d elements overflows the region size", name, rows, cols)
	}
	a, err := Alloc[T](c, name, rows*cols)
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{arr: *a, rows: rows, cols: cols}, nil
}

// Rows returns the row count.
func (mx *Matrix[T]) Rows() int { return mx.rows }

// Cols returns the column count.
func (mx *Matrix[T]) Cols() int { return mx.cols }

// Region exposes the backing region.
func (mx *Matrix[T]) Region() *dsm.Region { return mx.arr.region }

func (mx *Matrix[T]) checkRow(i int) {
	if i < 0 || i >= mx.rows {
		panic(fmt.Sprintf("shmem: row %d outside matrix %q with %d rows", i, mx.arr.region.Name, mx.rows))
	}
}

// checkCols panics unless row i exists and holds columns [jlo,jhi).
func (mx *Matrix[T]) checkCols(i, jlo, jhi int) {
	mx.checkRow(i)
	if jlo < 0 || jhi > mx.cols || jlo > jhi {
		panic(fmt.Sprintf("shmem: columns [%d,%d) outside matrix with %d cols", jlo, jhi, mx.cols))
	}
}

func (mx *Matrix[T]) checkElem(i, j int) {
	mx.checkRow(i)
	if j < 0 || j >= mx.cols {
		panic(fmt.Sprintf("shmem: column %d outside matrix %q with %d cols", j, mx.arr.region.Name, mx.cols))
	}
}

// Get reads element (i, j).
func (mx *Matrix[T]) Get(m Context, i, j int) T {
	mx.checkElem(i, j)
	return mx.arr.Get(m, i*mx.cols+j)
}

// Set writes element (i, j).
func (mx *Matrix[T]) Set(m Context, i, j int, v T) {
	mx.checkElem(i, j)
	mx.arr.Set(m, i*mx.cols+j, v)
}

// ReadRow copies row i into dst (length cols).
func (mx *Matrix[T]) ReadRow(m Context, i int, dst []T) {
	mx.checkRow(i)
	mx.arr.ReadRange(m, i*mx.cols, (i+1)*mx.cols, dst)
}

// WriteRow copies src (length cols) into row i.
func (mx *Matrix[T]) WriteRow(m Context, i int, src []T) {
	mx.checkRow(i)
	if len(src) != mx.cols {
		panic(fmt.Sprintf("shmem: row has %d elements, want %d", len(src), mx.cols))
	}
	mx.arr.WriteRange(m, i*mx.cols, src)
}

// ReadRowRange copies row i columns [jlo,jhi) into dst.
func (mx *Matrix[T]) ReadRowRange(m Context, i, jlo, jhi int, dst []T) {
	mx.checkCols(i, jlo, jhi)
	mx.arr.ReadRange(m, i*mx.cols+jlo, i*mx.cols+jhi, dst)
}

// WriteRowRange copies src into row i starting at column jlo.
func (mx *Matrix[T]) WriteRowRange(m Context, i, jlo int, src []T) {
	mx.checkCols(i, jlo, jlo+len(src))
	mx.arr.WriteRange(m, i*mx.cols+jlo, src)
}
