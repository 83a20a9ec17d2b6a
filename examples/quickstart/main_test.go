package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `filled 65536 elements on 4 processes
team grew to 5 processes after the join
sum = 1073725440.0 (want 1073725440.0)
virtual runtime 2.08 s, adaptations: 1
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
