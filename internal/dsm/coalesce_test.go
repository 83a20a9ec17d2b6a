package dsm

import (
	"fmt"
	"strings"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// TestCoalescedMetadataBounded pins the amortised-O(1) claim
// structurally: a long run of lock intervals keeps the release log and
// diff chains near the prune stride instead of growing with the
// interval count, and both floors rise with the pruning. That pruning
// never drops what a later read needs is checked where the structures
// are read (diffChain.after, AcquireInterval), on every run.
func TestCoalescedMetadataBounded(t *testing.T) {
	const cycles = 400
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	for i := 0; i < cycles; i++ {
		h := HostID(i & 1)
		c.AcquireLock(0, c.Host(h), clocks[h])
		putU64(c, h, r.ID, 0, uint64(i), clocks[h])
		c.ReleaseLock(0, c.Host(h), clocks[h])
	}
	logLen, maxChain, minFloor := len(c.releaseLog), 0, c.seq
	for _, h := range c.hosts {
		for _, chain := range h.diffs {
			maxChain = max(maxChain, len(chain.entries))
			minFloor = min(minFloor, chain.floor)
		}
	}
	// A prune every coalesceStride appends keeps steady state under one
	// stride of slack (plus the entries the floor cannot yet cover —
	// here the current open cycle only).
	bound := 2 * coalesceStride
	if logLen > bound || maxChain > bound {
		t.Errorf("metadata unbounded: log %d, max chain %d (want <= %d)", logLen, maxChain, bound)
	}
	if low := int32(cycles - bound); c.releaseFloor < low || minFloor < low {
		t.Errorf("floors lag the pruning: release log %d, lowest chain %d (want >= %d)", c.releaseFloor, minFloor, low)
	}
}

// TestAcquireBelowReleaseFloorPanics: an acquirer synchronised below the
// interval the release log was pruned through would miss the dropped
// entries' invalidations, so AcquireInterval refuses it, naming the
// host, its sequence and the floor. One synchronised exactly at the
// floor needs nothing dropped and acquires.
func TestAcquireBelowReleaseFloorPanics(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	for i := 0; i < 2*coalesceStride; i++ {
		h := HostID(i & 1)
		c.AcquireLock(0, c.Host(h), clocks[h])
		putU64(c, h, r.ID, 0, uint64(i), clocks[h])
		c.ReleaseLock(0, c.Host(h), clocks[h])
	}
	floor := c.releaseFloor
	if floor == 0 {
		t.Fatal("the release log was never pruned")
	}
	h := c.Host(1)
	h.syncSeq = floor
	c.AcquireInterval(h, simtime.NewClock(0))

	h.syncSeq = floor - 1
	want := fmt.Sprintf("acquire by host 1 synchronised through interval %d from a release log pruned through %d", floor-1, floor)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	c.AcquireInterval(h, simtime.NewClock(0))
}

// BenchmarkCoalescedAcquire measures the steady-state cost of a lock
// acquire/release cycle between two hosts: with the release log and
// diff chains pruned as they grow, it stays flat in b.N.
func BenchmarkCoalescedAcquire(b *testing.B) {
	c, err := New(Config{MaxHosts: 2})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Join(1); err != nil {
		b.Fatal(err)
	}
	r, err := c.Alloc("a", page.Size)
	if err != nil {
		b.Fatal(err)
	}
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AcquireLock(0, c.Host(0), clk0)
		putU64(c, 0, r.ID, 0, uint64(i), clk0)
		c.ReleaseLock(0, c.Host(0), clk0)
		c.AcquireLock(0, c.Host(1), clk1)
		putU64(c, 1, r.ID, 0, uint64(i)+1, clk1)
		c.ReleaseLock(0, c.Host(1), clk1)
	}
}
