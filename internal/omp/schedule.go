package omp

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/shmem"
)

// ParallelForTiled splits the iteration space into the given number of
// tiles and executes each tile as its own parallel construct. This is
// the section 7 extension the paper sketches: the compiler can control
// the frequency of adaptation points with transformations similar to
// loop tiling or strip mining, trading fork/join overhead for
// adaptation latency. A leave raised during a long loop reaches an
// adaptation point after one tile instead of the whole loop — the
// knob that keeps grace periods honourable without migration.
func (rt *Runtime) ParallelForTiled(name string, lo, hi, tiles int, body func(p *Proc, lo, hi int)) {
	if tiles < 1 {
		panic(fmt.Sprintf("omp: tile count must be positive, got %d", tiles))
	}
	total := hi - lo
	if total < 0 {
		panic(fmt.Sprintf("omp: invalid iteration space [%d,%d)", lo, hi))
	}
	if tiles > total {
		tiles = total
	}
	if tiles <= 1 {
		rt.For(name, lo, hi, body)
		return
	}
	for t := 0; t < tiles; t++ {
		tlo := lo + t*total/tiles
		thi := lo + (t+1)*total/tiles
		rt.For(fmt.Sprintf("%s.tile%d", name, t), tlo, thi, body)
	}
}

// dynLock is the Tmk lock guarding the shared chunk counter of the
// counter-based (Dynamic, Guided) schedules. Lock ids are a global
// namespace managed by host 0, and runSchedule is this id's only user:
// Proc.Lock and Proc.Unlock refuse it. The claim's write-once store
// relies on that (see runSchedule).
const dynLock = 1 << 30

// dynCounter lazily allocates the shared chunk counter backing the
// counter-based schedules: one page of int64 slots (slot 0 is the
// counter), reset at every construct in the sequential section. Like
// all shared allocation, the first use must happen master-side before
// any adaptation, which For guarantees by allocating before the fork.
func (rt *Runtime) dynCounter() *shmem.Array[int64] {
	if rt.dynCtr == nil {
		a, err := Alloc[int64](rt, "omp.dynamic-counter", page.Size/8)
		if err != nil {
			panic(fmt.Sprintf("omp: allocating dynamic-schedule counter: %v", err))
		}
		rt.dynCtr = a
	}
	return rt.dynCtr
}
