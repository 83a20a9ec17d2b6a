package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `checkpointed at iteration 10 (t=0.10s); simulating a crash
restored: resuming at iteration 10 with team [0 1 2 3]
restarted run matches the uninterrupted run exactly (checksum 917506)
`

func TestPinnedOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != pinned {
		t.Fatalf("output changed.\ngot:\n%s\nwant:\n%s", got, pinned)
	}
}
