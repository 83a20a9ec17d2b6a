//go:build race

package engine

import (
	"iter"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"nowomp/internal/simtime"
)

// residentKB is the process's resident set, which is where the race
// detector's own allocations show (they are not Go heap).
func residentKB(t *testing.T) int {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Skipf("no /proc/self/statm to measure the resident set with: %v", err)
	}
	pages, err := strconv.Atoi(strings.Fields(string(data))[1])
	if err != nil {
		t.Fatal(err)
	}
	return pages * os.Getpagesize() / 1024
}

// TestIdleCoroutineListEarnsItsKeep pins the one reason the
// process-wide idle-coroutine list exists (see coroutine): under
// go1.24's race detector every coroutine that finishes leaks its race
// context, about 7 KB, so a run of a hundred thousand constructs that
// made a coroutine per proc would grow by the better part of a
// gigabyte. Both halves are measured: procs carried by reused
// coroutines leave the resident set flat, and the same number of
// coroutines made and finished the plain way grow it. When the second
// half stops holding the toolchain has stopped leaking, and the list,
// carry and the thread-lock caveat in coroutine's comment can be
// deleted (ROADMAP 6e); until then deleting them turns the first half
// red.
func TestIdleCoroutineListEarnsItsKeep(t *testing.T) {
	const (
		procs   = 4
		engines = 1000
		n       = procs * engines
	)
	construct := func() {
		e := New()
		for p := 0; p < procs; p++ {
			e.Go("p", p, simtime.NewClock(0), func(*Proc) {})
		}
		e.Run()
	}
	// grew returns how far f moved the resident set, the Go heap's share
	// handed back first: what stays is what the race detector keeps.
	grew := func(f func()) int {
		before := residentKB(t)
		for i := 0; i < engines; i++ {
			f()
		}
		debug.FreeOSMemory()
		return residentKB(t) - before
	}
	for warm := 0; warm < 3; warm++ {
		grew(construct) // fills the idle list and settles the heap
	}
	reused := grew(construct)
	fresh := grew(func() {
		for p := 0; p < procs; p++ {
			next, stop := iter.Pull(func(yield func(struct{}) bool) { yield(struct{}{}) })
			next()
			next()
			stop()
		}
	})

	t.Logf("%d procs on reused coroutines: %+d KB resident; %d fresh coroutines: %+d KB", n, reused, n, fresh)
	if reused > fresh/4 {
		t.Errorf("%d procs on reused coroutines grew the resident set by %d KB, against %d KB for as many fresh coroutines: the engine is finishing coroutines again", n, reused, fresh)
	}
	if fresh < 2*n {
		t.Errorf("%d finished coroutines grew the resident set by only %d KB (go1.24 leaks about %d): this toolchain no longer leaks a race context per coroutine, so the engine's idle list has lost its reason — delete it (ROADMAP 6e)", n, fresh, 7*n)
	}
}
