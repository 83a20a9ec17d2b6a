package dsm

import (
	"encoding/binary"
	"slices"
	"testing"

	"nowomp/internal/engine"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

func TestLockVisibility(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)

	c.AcquireLock(1, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 41, clocks[0])
	c.ReleaseLock(1, c.Host(0), clocks[0])

	c.AcquireLock(1, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 41 {
		t.Fatalf("read %d under lock, want 41", got)
	}
	c.ReleaseLock(1, c.Host(1), clocks[1])
}

func TestLockInvalidatesStaleCopy(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	// Host 1 caches the page first.
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 0 {
		t.Fatalf("initial read = %d", got)
	}
	// Host 0 updates under a lock.
	c.AcquireLock(7, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 99, clocks[0])
	c.ReleaseLock(7, c.Host(0), clocks[0])
	// Host 1 must see the new value after its own acquire.
	c.AcquireLock(7, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 99 {
		t.Fatalf("stale read %d after acquire, want 99", got)
	}
	c.ReleaseLock(7, c.Host(1), clocks[1])
}

func TestLockUpgradesDirtyPage(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	// Host 1 dirties word 1 outside the lock (disjoint from host 0's
	// word 0: race-free).
	putU64(c, 1, r.ID, 8, 7, clocks[1])
	// Host 0 writes word 0 under the lock.
	c.AcquireLock(3, c.Host(0), clocks[0])
	putU64(c, 0, r.ID, 0, 5, clocks[0])
	c.ReleaseLock(3, c.Host(0), clocks[0])
	// Host 1 acquires: its dirty page must be patched in place, keeping
	// its own write.
	c.AcquireLock(3, c.Host(1), clocks[1])
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 5 {
		t.Fatalf("word 0 = %d, want 5 (patched in)", got)
	}
	if got := getU64(c, 1, r.ID, 8, clocks[1]); got != 7 {
		t.Fatalf("word 1 = %d, want 7 (own dirty write preserved)", got)
	}
	c.ReleaseLock(3, c.Host(1), clocks[1])
}

func TestLockMutualExclusion(t *testing.T) {
	c, _ := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", page.Size)
	const perHost = 50
	e := engine.New()
	c.BeginPhase(e)
	for h := 0; h < 4; h++ {
		h := h
		clk := simtime.NewClock(0)
		host := c.Host(HostID(h))
		e.Go("incrementer", h, clk, func(*engine.Proc) {
			for i := 0; i < perHost; i++ {
				c.AcquireLock(0, host, clk)
				var b [8]byte
				readBytes(host, r.ID, 0, b[:], clk)
				v := binary.LittleEndian.Uint64(b[:])
				binary.LittleEndian.PutUint64(b[:], v+1)
				writeBytes(host, r.ID, 0, b[:], clk)
				c.ReleaseLock(0, host, clk)
			}
		})
	}
	e.Run()
	c.EndPhase()
	clk := simtime.NewClock(0)
	c.AcquireLock(0, c.Host(0), clk)
	got := getU64(c, 0, r.ID, 0, clk)
	c.ReleaseLock(0, c.Host(0), clk)
	if got != 4*perHost {
		t.Fatalf("counter = %d, want %d", got, 4*perHost)
	}
	if n := c.Stats().LockAcquires; n != 4*perHost+1 {
		t.Fatalf("LockAcquires = %d, want %d", n, 4*perHost+1)
	}
}

// TestUpgradeInPlaceKeepsDiffsOwnWrites pins the twin-patching rule of
// the dirty-upgrade path: when an acquire patches a committed remote
// diff into a page the host holds dirty, the host's own next diff must
// contain only its own writes. Before the fix the twin was left stale,
// so the next flush re-broadcast the remote word as this host's — and
// the word-race check panicked on a race-free program as soon as a
// third host was dirty on that word again.
func TestUpgradeInPlaceKeepsDiffsOwnWrites(t *testing.T) {
	c, _ := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	e := engine.New()
	c.BeginPhase(e)
	defer c.EndPhase()

	clk0 := simtime.NewClock(1.0)
	clk1 := simtime.NewClock(0)
	e.Go("h0", 0, clk0, func(*engine.Proc) {
		// Commit word 0 under the lock, then dirty it again in a new
		// open interval: the open write is what the race check compares
		// host 1's later flush against.
		c.AcquireLock(3, c.Host(0), clk0)
		putU64(c, 0, r.ID, 0, 5, clk0)
		c.ReleaseLock(3, c.Host(0), clk0)
		putU64(c, 0, r.ID, 0, 6, clk0)
	})
	e.Go("h1", 1, clk1, func(p *engine.Proc) {
		// Cache and dirty word 1 before host 0's release, wait out the
		// release, then acquire: the upgrade patches host 0's committed
		// word-0 diff into the dirty page. The release's diff must
		// cover word 1 only — overlapping host 0's open word-0 write
		// would panic the race check.
		putU64(c, 1, r.ID, 8, 7, clk1)
		var sitOut engine.WaitList
		p.ParkOn(&sitOut, "sit out host 0's lock section", func() (simtime.Seconds, bool) { return 5.0, true })
		clk1.AdvanceTo(5.0)
		c.AcquireLock(3, c.Host(1), clk1)
		putU64(c, 1, r.ID, 8, 8, clk1)
		c.ReleaseLock(3, c.Host(1), clk1)
		if got := getU64(c, 1, r.ID, 0, clk1); got != 5 {
			t.Errorf("host 1 word 0 = %d, want 5 (patched in)", got)
		}
	})
	e.Run()
}

func TestLockCostCharged(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	c.Alloc("a", page.Size)
	m := c.Model()

	// First acquire: uncontended at the manager.
	c.AcquireLock(9, c.Host(1), clocks[1])
	if d := clocks[1].Now(); d < m.LockBase || d > m.LockBase+simtime.Micros(1) {
		t.Fatalf("uncontended acquire cost %v, want about %v", d, m.LockBase)
	}
	c.ReleaseLock(9, c.Host(1), clocks[1])

	// Second acquire by a third host: forwarded from holder 1.
	t0 := clocks[2].Now()
	c.AcquireLock(9, c.Host(2), clocks[2])
	d := clocks[2].Now() - t0
	if d < m.LockBase+m.LockForward {
		t.Fatalf("forwarded acquire cost %v, want >= %v", d, m.LockBase+m.LockForward)
	}
	c.ReleaseLock(9, c.Host(2), clocks[2])
}

func TestLocksThenBarrierConsistent(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r, _ := c.Alloc("a", page.Size)
	// Everyone caches the page.
	for h := 0; h < 3; h++ {
		getU64(c, HostID(h), r.ID, 0, clocks[h])
	}
	// Host 2 updates under a lock; hosts 0 and 1 do not acquire.
	c.AcquireLock(4, c.Host(2), clocks[2])
	putU64(c, 2, r.ID, 0, 123, clocks[2])
	c.ReleaseLock(4, c.Host(2), clocks[2])
	// The barrier must invalidate the stale copies even though hosts 0
	// and 1 never acquired the lock.
	barrier(c, clocks)
	for h := 0; h < 2; h++ {
		if got := getU64(c, HostID(h), r.ID, 0, clocks[h]); got != 123 {
			t.Fatalf("host %d read %d after barrier, want 123", h, got)
		}
	}
}

// TestLockGrantOrder pins the order in which parked acquirers are
// granted a lock: by virtual request time, then host id, then the
// order the requests were made (the ticket), whatever order the procs
// were started in.
func TestLockGrantOrder(t *testing.T) {
	type requester struct {
		name  string
		host  HostID
		start simtime.Seconds
	}
	const hold = simtime.Seconds(1e-3)
	run := func(rs []requester, repeat int) []string {
		c, _ := newTestCluster(t, 4, 4)
		e := engine.New()
		c.BeginPhase(e)
		defer c.EndPhase()
		var grants []string
		for _, r := range rs {
			clk := simtime.NewClock(r.start)
			host := c.Host(r.host)
			e.Go(r.name, int(r.host), clk, func(p *engine.Proc) {
				for range repeat {
					c.AcquireLock(0, host, clk)
					grants = append(grants, r.name)
					// Park through the hold, so every other requester
					// queues behind this one before the release.
					until := clk.Now() + hold
					var sitOut engine.WaitList
					p.ParkOn(&sitOut, "hold the lock", func() (simtime.Seconds, bool) { return until, true })
					clk.AdvanceTo(until)
					c.ReleaseLock(0, host, clk)
				}
			})
		}
		e.Run()
		return grants
	}
	cases := []struct {
		name   string
		rs     []requester
		repeat int
		want   []string
	}{
		{
			name:   "equal instants, several hosts",
			rs:     []requester{{"h3", 3, 0}, {"h1", 1, 0}, {"h0", 0, 0}, {"h2", 2, 0}},
			repeat: 1,
			want:   []string{"h0", "h1", "h2", "h3"},
		},
		{
			name:   "repeated requests from one host",
			rs:     []requester{{"h2b", 2, 0}, {"h2a", 2, 0}, {"h1", 1, 0}, {"h3", 3, hold / 2}},
			repeat: 3,
			want: []string{
				"h1", "h2b", "h2a", "h3",
				"h1", "h2b", "h2a", "h3",
				"h1", "h2b", "h2a", "h3",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := run(tc.rs, tc.repeat)
			if !slices.Equal(got, tc.want) {
				t.Errorf("grants %q, want %q", got, tc.want)
			}
		})
	}
}

// TestAcquireAllocationPin: acquire-side consistency walks the release
// log's unsynchronised suffix in place and reads each page's live
// directory record, so an acquire over four released pages allocates
// nothing.
func TestAcquireAllocationPin(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", 4*page.Size)
	h1 := c.Host(1)
	for p := 0; p < 4; p++ {
		getU64(c, 1, r.ID, p*page.Size, clocks[1])
	}
	c.AcquireLock(0, c.Host(0), clocks[0])
	for p := 0; p < 4; p++ {
		putU64(c, 0, r.ID, p*page.Size, uint64(p)+1, clocks[0])
	}
	c.ReleaseLock(0, c.Host(0), clocks[0])
	c.AcquireLock(0, h1, clocks[1])
	if n := len(c.releaseLog); n != 4 {
		t.Fatalf("release log holds %d entries, want 4", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		h1.syncSeq = 0
		c.AcquireInterval(h1, clocks[1])
	}); n != 0 {
		t.Fatalf("AcquireInterval over a 4-page stale suffix: %v allocations, want 0", n)
	}
	if got := getU64(c, 1, r.ID, 3*page.Size, clocks[1]); got != 4 {
		t.Fatalf("host 1 reads %d after the acquire, want 4", got)
	}
}
