package scenario

import (
	"math"
	"sync"
	"testing"

	"nowomp/internal/apps"
)

// countingRunner is a kernel whose reference at scale s is 2s, and
// which counts how often that reference is computed. Its name keeps it
// apart from the real kernels' entries in the memo.
func countingRunner(name string) (apps.Runner, *int) {
	calls := new(int)
	return apps.Runner{
		Name: name,
		Reference: func(s float64) float64 {
			*calls++
			return 2 * s
		},
	}, calls
}

// TestVerifyComparesOnAMemoHit: the memo saves the reference, not the
// comparison. After a run has verified, a run of the same kernel and
// scale whose checksum is one ulp off still fails, and both were
// checked against one computed reference.
func TestVerifyComparesOnAMemoHit(t *testing.T) {
	r, calls := countingRunner("test-memo-hit")
	if err := verify(r, 0.25, 0.5); err != nil {
		t.Fatalf("the reference's own checksum failed: %v", err)
	}
	if err := verify(r, 0.25, math.Nextafter(0.5, 1)); err == nil {
		t.Fatal("a perturbed checksum passed on a memo hit")
	}
	if err := verify(r, 0.25, 0.5); err != nil {
		t.Fatalf("the reference's own checksum failed on a memo hit: %v", err)
	}
	if *calls != 1 {
		t.Fatalf("the reference was computed %d times for one kernel and scale, want 1", *calls)
	}
}

// TestVerifyKeysOnKernelAndScale: two scales of one kernel, and two
// kernels at one scale, never share an entry.
func TestVerifyKeysOnKernelAndScale(t *testing.T) {
	r, calls := countingRunner("test-memo-scale")
	for _, s := range []float64{0.1, 0.2, 0.1, 0.2} {
		if err := verify(r, s, 2*s); err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
	}
	if *calls != 2 {
		t.Fatalf("two scales computed %d references, want 2", *calls)
	}
	other, _ := countingRunner("test-memo-scale-other")
	other.Reference = func(s float64) float64 { return 3 * s }
	if s := 0.1; verify(other, s, 3*s) != nil {
		t.Fatal("a second kernel at the same scale got the first one's reference")
	}
}

// TestReferenceMemoBounded: however many distinct references pass
// through it, the memo never holds more than referenceMemoCap.
func TestReferenceMemoBounded(t *testing.T) {
	r, calls := countingRunner("test-memo-bound")
	for i := 0; i < 3*referenceMemoCap+5; i++ {
		s := float64(i + 1)
		if err := verify(r, s, 2*s); err != nil {
			t.Fatalf("scale %v: %v", s, err)
		}
		references.mu.Lock()
		n := len(references.m)
		references.mu.Unlock()
		if n > referenceMemoCap {
			t.Fatalf("after %d references the memo holds %d, want at most %d", i+1, n, referenceMemoCap)
		}
	}
	if *calls != 3*referenceMemoCap+5 {
		t.Fatalf("%d distinct scales computed %d references", 3*referenceMemoCap+5, *calls)
	}
}

// TestConcurrentVerifiedRuns runs verified specs of two kernels, two
// of them sharing each (kernel, scale), side by side, as the farm's
// workers do; under -race it checks the memo's locking. Each result
// must equal the same spec run alone.
func TestConcurrentVerifiedRuns(t *testing.T) {
	specs := []Spec{
		{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4, Verify: true},
		{Kernel: "jacobi", Scale: 0.03, Procs: 4, Hosts: 4, Verify: true},
		{Kernel: "nbf", Scale: 0.02, Procs: 2, Hosts: 4, Verify: true},
		{Kernel: "nbf", Scale: 0.02, Procs: 4, Hosts: 4, Protocol: "hlrc", Verify: true},
	}
	got := make([]Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.Run()
		}()
	}
	wg.Wait()
	for i, s := range specs {
		if errs[i] != nil {
			t.Fatalf("%+v: %v", s, errs[i])
		}
		want, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want || !got[i].Verified {
			t.Fatalf("%+v side by side: %+v, alone %+v", s, got[i], want)
		}
	}
}
