package main

import (
	"strings"
	"testing"
)

// Every number the example prints is simulated, so its whole output is
// deterministic and pinned here: a change to the public API or to a
// simulated cost shows up as a diff of this text.
const pinned = `gauss 1024x1024 factorised while the NOW shrank 8 -> 4 workstations
  t= 2.01s  owner of host 7 returned: 128 pages handed off in 0.032s, team -> [0 1 2 3 4 5 6]
  t= 5.03s  owner of host 6 returned: 147 pages handed off in 0.039s, team -> [0 1 2 3 4 5]
  t= 8.01s  owner of host 5 returned: 171 pages handed off in 0.051s, team -> [0 1 2 3 4]
  t=11.03s  owner of host 4 returned: 205 pages handed off in 0.073s, team -> [0 1 2 3]
virtual runtime 24.38s, traffic 47.26 MB
checksum 1.05523e+06 — identical on any team-size trajectory
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
