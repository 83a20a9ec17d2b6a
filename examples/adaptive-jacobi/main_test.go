package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `jacobi 900x900, 120 iterations on a pool of 8 workstations
virtual runtime 4.79 s, 6.5 MB shared, 27.58 MB network traffic, 1695 diffs
  t= 1.23s  leave host 5  cost 0.270s   198 pages moved  team -> [0 1 2 3 4 6 7]
  t= 2.96s  join  host 5  cost 0.011s     0 pages moved  team -> [0 1 2 3 4 6 7 5]
final team: 8 processes
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
