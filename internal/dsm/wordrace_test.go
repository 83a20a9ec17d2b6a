package dsm

import (
	"strings"
	"testing"

	"nowomp/internal/simtime"
)

// twoHostCluster builds a cluster with hosts 0 and 1 active and one
// 1-page region, returning the region too.
func twoHostCluster(t *testing.T) (*Cluster, *Region) {
	t.Helper()
	c, err := New(Config{MaxHosts: 2, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Join(1); err != nil {
		t.Fatalf("Join: %v", err)
	}
	r, err := c.Alloc("race.page", 4096)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return c, r
}

// Two hosts writing within the same 8-byte word in one interval is the
// sub-word layout DESIGN.md warns about: diffs merge at word
// granularity and one update would silently vanish. The interval close
// must detect it and fail loudly.
func TestBarrierFlagsSubWordConcurrentWriters(t *testing.T) {
	c, r := twoHostCluster(t)
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)

	// Master seeds the page so both hosts start from a common base.
	writeBytes(c.Host(0), r.ID, 0, make([]byte, 16), clk0)
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

	// Host 0 writes bytes [0,4), host 1 bytes [4,8): disjoint bytes,
	// same word — a float32-adjacent-element layout.
	writeBytes(c.Host(0), r.ID, 0, []byte{1, 2, 3, 4}, clk0)
	writeBytes(c.Host(1), r.ID, 4, []byte{5, 6, 7, 8}, clk1)

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("barrier did not flag sub-word concurrent writers")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "word") || !strings.Contains(msg, "race.page") {
			t.Fatalf("unexpected panic: %v", v)
		}
	}()
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})
}

// Writers that stay a word apart are the supported multiple-writer
// pattern and must pass the same check.
func TestBarrierAcceptsWordDisjointWriters(t *testing.T) {
	c, r := twoHostCluster(t)
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)

	writeBytes(c.Host(0), r.ID, 0, make([]byte, 16), clk0)
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

	writeBytes(c.Host(0), r.ID, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, clk0)
	writeBytes(c.Host(1), r.ID, 8, []byte{9, 10, 11, 12, 13, 14, 15, 16}, clk1)
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

	// Both writers' words survive the merge on a third read.
	got := make([]byte, 16)
	readBytes(c.Host(0), r.ID, 0, got, clk0)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d (merge lost an update)", i, got[i], want[i])
		}
	}
}

// The same sub-word hazard must be caught on the flush path (lock
// releases and task handoffs), where the peer's interval is still
// open: the flushed diff is checked against concurrently-dirty copies.
func TestFlushFlagsSubWordConcurrentWriters(t *testing.T) {
	c, r := twoHostCluster(t)
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)

	writeBytes(c.Host(0), r.ID, 0, make([]byte, 16), clk0)
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

	writeBytes(c.Host(0), r.ID, 0, []byte{1, 2, 3, 4}, clk0)
	writeBytes(c.Host(1), r.ID, 4, []byte{5, 6, 7, 8}, clk1)

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("flush did not flag sub-word concurrent writers")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "word") || !strings.Contains(msg, "race.page") {
			t.Fatalf("unexpected panic: %v", v)
		}
	}()
	c.FlushInterval(c.Host(0), clk0)
}

// Word-disjoint flushes against a dirty peer stay silent.
func TestFlushAcceptsWordDisjointWriters(t *testing.T) {
	c, r := twoHostCluster(t)
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)

	writeBytes(c.Host(0), r.ID, 0, make([]byte, 16), clk0)
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{clk0.Now(), clk1.Now()})

	writeBytes(c.Host(0), r.ID, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, clk0)
	writeBytes(c.Host(1), r.ID, 8, []byte{9, 10, 11, 12}, clk1)
	if n := c.FlushInterval(c.Host(0), clk0); n != 1 {
		t.Fatalf("flush created %d diffs, want 1", n)
	}
}
