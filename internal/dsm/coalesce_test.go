package dsm

import (
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// TestCoalescedMetadataBounded pins the tentpole's amortised-O(1)
// claim structurally: under CoalesceAuto a long run of lock intervals
// keeps the release log and diff chains near the prune stride, where
// CoalesceOff lets both grow with the interval count. The differential
// suites in internal/bench and internal/scenfuzz pin that the records
// are unchanged; this test pins that the metadata actually shrinks.
func TestCoalescedMetadataBounded(t *testing.T) {
	const cycles = 400
	run := func(mode CoalescingMode) (logLen, maxChain int) {
		restore := SetCoalescing(mode)
		defer restore()
		c, clocks := newTestCluster(t, 2, 2)
		r, _ := c.Alloc("a", page.Size)
		for i := 0; i < cycles; i++ {
			h := HostID(i & 1)
			c.AcquireLock(0, c.Host(h), clocks[h])
			putU64(c, h, r.ID, 0, uint64(i), clocks[h])
			c.ReleaseLock(0, c.Host(h), clocks[h])
		}
		logLen = len(c.releaseLog)
		for _, h := range c.hosts {
			for _, chain := range h.diffs {
				if len(chain.entries) > maxChain {
					maxChain = len(chain.entries)
				}
			}
		}
		return logLen, maxChain
	}

	offLog, offChain := run(CoalesceOff)
	autoLog, autoChain := run(CoalesceAuto)
	forceLog, forceChain := run(CoalesceForce)

	if offLog < cycles-1 || offChain < cycles/2 {
		t.Fatalf("CoalesceOff baseline did not accumulate: log %d, max chain %d (want >= %d / %d)",
			offLog, offChain, cycles-1, cycles/2)
	}
	// Auto prunes every coalesceStride appends, so steady state sits
	// under one stride of slack (plus the entries the floor cannot yet
	// cover — here the current open cycle only).
	bound := 2 * coalesceStride
	if autoLog > bound || autoChain > bound {
		t.Errorf("CoalesceAuto metadata unbounded: log %d, max chain %d (want <= %d)",
			autoLog, autoChain, bound)
	}
	if forceLog > 2 || forceChain > 2 {
		t.Errorf("CoalesceForce metadata unbounded: log %d, max chain %d (want <= 2)",
			forceLog, forceChain)
	}
}

// BenchmarkCoalescedAcquire measures the steady-state cost of a lock
// acquire/release cycle under each coalescing mode. Under CoalesceOff
// the per-cycle cost climbs as the release log and diff chains grow
// with b.N; under auto and force it stays flat — the testing.B pin for
// the coalesced acquire path.
func BenchmarkCoalescedAcquire(b *testing.B) {
	for _, m := range []struct {
		name string
		mode CoalescingMode
	}{{"off", CoalesceOff}, {"auto", CoalesceAuto}, {"force", CoalesceForce}} {
		b.Run(m.name, func(b *testing.B) {
			restore := SetCoalescing(m.mode)
			defer restore()
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
		})
	}
}
