package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `mergesort of 262144 keys on a pool of 8 workstations
virtual runtime 1.27 s, 2.1 MB shared, 5.63 MB network traffic, 64 diffs
  t= 0.40s  leave host 2  cost 0.087s    64 pages moved  team -> [0 1 3]
  t= 0.88s  join  host 6  cost 0.003s     0 pages moved  team -> [0 1 3 6]
final team: 4 processes
verified: sorted result matches the sequential reference bit for bit

sum of squares below 65536 = 93822844764160 (31 tasks, 5 steals, 5 migrated executions)
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
