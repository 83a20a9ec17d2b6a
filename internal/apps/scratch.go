package apps

// scratch is one kernel run's free list of work slices. A parallel
// body takes its per-call buffers with get and hands them back with
// put before it returns, so an iterated construct allocates them once
// per process instead of once per process per iteration. It needs no
// lock because the engine runs one proc at a time, and it must stay a
// local of the run: farm workers execute kernels concurrently, and a
// shared list would both race and let one run's memory outlive it. A
// slice a suspended proc still holds is simply not on the list.
type scratch[T any] struct {
	free [][]T
}

// get returns a slice of length n with unspecified contents: the
// smallest free slice that can hold n, or a new one.
func (s *scratch[T]) get(n int) []T {
	best := -1
	for i, b := range s.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, n)
	}
	b := s.free[best]
	last := len(s.free) - 1
	s.free[best] = s.free[last]
	s.free[last] = nil
	s.free = s.free[:last]
	return b[:n]
}

// put returns slices taken with get; the caller must not use them
// afterwards.
func (s *scratch[T]) put(bs ...[]T) {
	s.free = append(s.free, bs...)
}
