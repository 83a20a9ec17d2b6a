// Package shmem provides typed views over DSM shared-memory regions:
// generic vectors (Array[T]) and row-major matrices (Matrix[T]) over
// the Element constraint, with both element and bulk-row accessors.
// Bulk accessors amortise the page-granularity fault checks over whole
// rows, which is how the compiled OpenMP loop bodies access shared
// arrays.
//
// Every accessor takes a Context naming the accessing process's address
// space and virtual clock; the same array handle is shared by all
// processes (the Tmk_distribute idiom) while faults and costs accrue to
// the accessing process.
//
// Every accessor, element or bulk, goes through one path: the typed
// page span of span.go, which aliases page memory in place. There is
// no byte-order codec; Alloc refuses a big-endian host instead.
package shmem

import (
	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

// Context is the process view required to touch shared memory.
type Context struct {
	Host  *dsm.Host
	Clock *simtime.Clock
}

func mustContext(m Context) {
	if m.Host == nil || m.Clock == nil {
		panic("shmem: access with zero Context; use the Proc's Mem()")
	}
}
