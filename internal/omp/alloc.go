package omp

import "nowomp/internal/shmem"

// Alloc allocates a shared vector of n elements of T; on a restored
// runtime it rebinds to (and reloads) the checkpointed region instead.
// Go has no generic methods, so the allocators are top-level functions
// taking the runtime as their first argument.
func Alloc[T shmem.Element](rt *Runtime, name string, n int) (*shmem.Array[T], error) {
	if err := rt.restoreCheck(name, n*shmem.Sizeof[T]()); err != nil {
		return nil, err
	}
	a, err := shmem.Alloc[T](rt.cluster, name, n)
	if err != nil {
		return nil, err
	}
	return a, rt.restoreFill(a.Region())
}

// AllocMatrix allocates a shared rows x cols matrix of T (see Alloc).
func AllocMatrix[T shmem.Element](rt *Runtime, name string, rows, cols int) (*shmem.Matrix[T], error) {
	if err := rt.restoreCheck(name, rows*cols*shmem.Sizeof[T]()); err != nil {
		return nil, err
	}
	mx, err := shmem.AllocMatrix[T](rt.cluster, name, rows, cols)
	if err != nil {
		return nil, err
	}
	return mx, rt.restoreFill(mx.Region())
}
