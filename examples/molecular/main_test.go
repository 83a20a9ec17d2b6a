package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `grace 30s : runtime 6.91s, traffic 32.43 MB
  normal leave of host 6 at t=3.08s: 360 pages handed off in 0.487s
grace 0.01s: runtime 9.32s, traffic 46.32 MB
  URGENT leave of host 6: image 13.9 MB migrated in 2.42s, then 360 pages handed off

both runs produced identical results (checksum 132772)
urgent leave cost 2.42s more than the normal one — the premium the grace period avoids
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
