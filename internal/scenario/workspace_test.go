package scenario

import (
	"bytes"
	"strings"
	"testing"

	"nowomp/internal/dsm"
)

// encodeRun runs spec through run and returns its encoded Result.
func encodeRun(t *testing.T, run func(Spec) (Result, error), spec Spec) []byte {
	t.Helper()
	res, err := run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWarmRunTakesNoFreshPage: the second run of one spec in a
// workspace draws every page and twin buffer from what the first run
// handed back, and encodes the same bytes. The count is the freelist's,
// not a timing: a buffer the hand-back missed shows as a fresh
// allocation in the second run.
func TestWarmRunTakesNoFreshPage(t *testing.T) {
	for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
		spec := Spec{Kernel: "jacobi", Scale: 0.06, Procs: 3, Hosts: 4, Protocol: proto,
			Adaptive: true, Machines: "0=0.05,1=0.05,2=0.05,3=0.05", Schedule: "0:join:3,1:leave:1"}
		var ws Workspace
		first := encodeRun(t, ws.RunChecked, spec)
		fresh := ws.pages.Fresh()
		if fresh == 0 {
			t.Fatalf("%s: the first run took no fresh buffer", proto)
		}
		second := encodeRun(t, ws.RunChecked, spec)
		if n := ws.pages.Fresh() - fresh; n != 0 {
			t.Errorf("%s: the second run took %d fresh buffers, want 0 (the first took %d)", proto, n, fresh)
		}
		if !bytes.Contains(first, []byte(`"adaptations": 2`)) {
			t.Fatalf("%s: the join and the leave did not both apply:\n%s", proto, first)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: the second run encodes differently:\n%s\nfirst:\n%s", proto, second, first)
		}
	}
}

// TestWorkspaceKeepsAtMostTheBound: a run that takes more buffers than
// the bound leaves workspaceKeep of them in the workspace, so the same
// run again takes exactly that many fewer fresh ones.
func TestWorkspaceKeepsAtMostTheBound(t *testing.T) {
	var ws Workspace
	spec := Spec{Kernel: "gauss", Scale: 1.0 / 3, Procs: 8, Hosts: 8}
	encodeRun(t, ws.Run, spec)
	first := ws.pages.Fresh()
	if first <= workspaceKeep {
		t.Fatalf("the run took %d buffers, not more than the bound %d: pick a larger spec", first, workspaceKeep)
	}
	encodeRun(t, ws.Run, spec)
	if second := ws.pages.Fresh() - first; second != first-workspaceKeep {
		t.Fatalf("the second run took %d fresh buffers, want %d (the first took %d, the workspace keeps %d)",
			second, first-workspaceKeep, first, workspaceKeep)
	}
}

// TestWorkspaceDropsBuffersOnPanic: a run that panics can leave a buffer
// both on the list and referenced by its abandoned cluster, so
// RunChecked drops the workspace's buffers, and the next run in it
// encodes the bytes of a fresh run.
func TestWorkspaceDropsBuffersOnPanic(t *testing.T) {
	spec := Spec{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4}
	var ws Workspace
	encodeRun(t, ws.Run, Spec{Kernel: "nbf", Scale: 0.03, Procs: 3, Hosts: 4})

	restore, err := dsm.InjectCoherenceMutation("fault-panic")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ws.RunChecked(spec)
	restore()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("run under fault-panic: err = %v, want the recovered panic", err)
	}
	if ws.pages != nil {
		t.Fatal("the workspace kept its buffers after a recovered panic")
	}
	if warm, cold := encodeRun(t, ws.RunChecked, spec), encodeRun(t, Spec.Run, spec); !bytes.Equal(warm, cold) {
		t.Fatalf("the run after the panic differs from a fresh run:\n%s\nfresh:\n%s", warm, cold)
	}
}
