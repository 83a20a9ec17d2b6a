package dsm

import (
	"fmt"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// threeHostCluster builds a cluster under the given protocol with hosts
// 0, 1 and 2 active and one 3-page region "race.page". Under the
// home-based protocols page p is homed at host p.
func threeHostCluster(t *testing.T, proto ProtocolKind) (*Cluster, *Region) {
	t.Helper()
	c, err := New(Config{MaxHosts: 3, Adaptive: true, Protocol: proto})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for id := HostID(1); id <= 2; id++ {
		if _, err := c.Join(id); err != nil {
			t.Fatalf("Join(%d): %v", id, err)
		}
	}
	r, err := c.Alloc("race.page", 3*page.Size)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return c, r
}

// raceWrites makes hosts a and b race on page p: both write inside
// words 7 and 300 (different bytes of each: a sub-word race, in two
// different mask lanes), and each also writes a lower word the other
// leaves alone — so the diagnostic must name word 7, the first word
// they share, not the first word either modified.
func raceWrites(c *Cluster, r *Region, p int, a, b HostID, clks []*simtime.Clock) {
	base := p * page.Size
	word := func(w, byteInWord int) int { return base + w*page.WordBytes + byteInWord }
	ha, hb := c.Host(a), c.Host(b)
	writeBytes(ha, r.ID, word(2, 0), []byte{1}, clks[a])
	writeBytes(ha, r.ID, word(7, 0), []byte{1, 2, 3, 4}, clks[a])
	writeBytes(ha, r.ID, word(300, 0), []byte{1, 2, 3, 4}, clks[a])
	writeBytes(hb, r.ID, word(3, 0), []byte{1}, clks[b])
	writeBytes(hb, r.ID, word(7, 4), []byte{5, 6, 7, 8}, clks[b])
	writeBytes(hb, r.ID, word(300, 4), []byte{5, 6, 7, 8}, clks[b])
}

// TestWordRaceDiagnostics provokes each word-race check under each
// protocol and pins the whole panic text — hosts, region name, word
// index, byte offset. The texts are those of the run-list codec this
// one replaced, so the mask-based overlap reports the same first word.
func TestWordRaceDiagnostics(t *testing.T) {
	const msg = "dsm: hosts %d and %d both wrote within the 8-byte word at byte offset %d of region \"race.page\" (page %d, word 7) %s; sub-word concurrent writes lose updates (keep concurrent writers 8 bytes apart)"
	all := []HostID{0, 1, 2}
	now := func(clks []*simtime.Clock) []simtime.Seconds {
		return []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()}
	}
	home := func(c *Cluster, r *Region, p int) HostID { return c.meta(r.ID, p).owner }

	sites := []struct {
		name string
		// run sets the race up and returns the call that must panic
		// and the text it must panic with.
		run func(t *testing.T, c *Cluster, r *Region, clks []*simtime.Clock) (trigger func(), want string)
	}{
		{"same-interval writers at a barrier", func(t *testing.T, c *Cluster, r *Region, clks []*simtime.Clock) (func(), string) {
			raceWrites(c, r, 0, 0, 1, clks)
			return func() { c.Barrier(all, now(clks)) },
				fmt.Sprintf(msg, 0, 1, 7*page.WordBytes, 0, "in the same interval")
		}},
		{"dirty peer on a lock release", func(t *testing.T, c *Cluster, r *Region, clks []*simtime.Clock) (func(), string) {
			// Page 2: under the home-based protocols its home is host 2,
			// a bystander, so the pushed diff lands on a clean home and
			// the dirty-peer check is what fires.
			raceWrites(c, r, 2, 0, 1, clks)
			return func() {
					c.AcquireLock(1, c.Host(0), clks[0])
					c.ReleaseLock(1, c.Host(0), clks[0])
				},
				fmt.Sprintf(msg, 0, 1, 2*page.Size+7*page.WordBytes, 2, "without synchronisation")
		}},
		{"remote diff onto a dirty home", func(t *testing.T, c *Cluster, r *Region, clks []*simtime.Clock) (func(), string) {
			if c.Protocol() == Tmk {
				t.Skip("tmk is homeless: no diff is ever applied at a home")
			}
			// Host 2 commits a write to page 1 first. HLRC leaves the
			// home at host 1; hybrid moves it to host 2 and retains
			// host 2's diff, which is what later stops the home from
			// following host 0's flush instead of receiving it. The
			// expected text names the home each protocol must have.
			writeBytes(c.Host(2), r.ID, page.Size+100*page.WordBytes, []byte{9}, clks[2])
			c.Barrier(all, now(clks))
			hm := home(c, r, 1)
			if hm == 0 {
				t.Fatalf("page 1 is homed at the writer, host 0")
			}
			raceWrites(c, r, 1, 0, hm, clks)
			if st := &c.Host(hm).pages[r.ID][1]; !st.dirty || st.twin == nil {
				t.Fatalf("home %d does not hold page 1 dirty with a twin", hm)
			}
			return func() {
					// A home that followed the writer would have skipped
					// the apply and left the panic to the dirty-peer check.
					defer func() {
						if got := home(c, r, 1); got != hm {
							t.Errorf("home moved from %d to %d: the diff was never applied at the dirty home", hm, got)
						}
					}()
					c.FlushInterval(c.Host(0), clks[0])
				},
				fmt.Sprintf(msg, 0, map[ProtocolKind]HostID{HLRC: 1, Hybrid: 2}[c.Protocol()], page.Size+7*page.WordBytes, 1, "without synchronisation")
		}},
	}

	for _, proto := range []ProtocolKind{Tmk, HLRC, Hybrid} {
		for _, site := range sites {
			t.Run(proto.String()+"/"+site.name, func(t *testing.T) {
				c, r := threeHostCluster(t, proto)
				clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
				trigger, want := site.run(t, c, r, clks)
				defer func() {
					if got := recover(); got != want {
						t.Fatalf("panic\n got: %v\nwant: %s", got, want)
					}
				}()
				trigger()
			})
		}
	}
}

// dirtyWord puts h's copy of the page in the state a first write
// leaves it in — twinned, dirty, one word changed — without going
// through Host.WriteSpan, whose per-interval written-list growth is not
// part of what the pins below measure.
func dirtyWord(c *Cluster, h *Host, pk pageKey, word int) {
	st := &h.pages[pk.region][pk.page]
	st.twin = c.pagePool.Copy(st.data)
	st.dirty = true
	st.data[word*page.WordBytes]++
}

// TestCloseAllocationPins pins the heap cost of closing a written
// page. Under HLRC a diff is scanned, priced and committed at the home,
// whose copy takes the words from the writer's page when it settles:
// nothing outlives the close, so nothing may be allocated — on the
// barrier path, on the lock-release path, on the write fault that opens
// the next interval, or applying onto a home that is itself dirty. A
// hybrid close retains its diff in the home's window; in the steady
// state, with the window at its bound, the diff the close drops is the
// one its pack reuses, so nothing is allocated there either. Under Tmk
// the writer keeps the diff: its header and its one payload buffer.
func TestCloseAllocationPins(t *testing.T) {
	setup := func(proto ProtocolKind) (*Cluster, *Host, pageKey) {
		c, err := New(Config{MaxHosts: 2, Adaptive: true, Protocol: proto})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := c.Join(1); err != nil {
			t.Fatalf("Join: %v", err)
		}
		r, err := c.Alloc("pin", page.Size)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		// Page 0 is homed at (tmk: owned by) host 0; host 1 is the
		// remote writer and needs a copy to write to.
		w := c.Host(1)
		readBytes(w, r.ID, 0, make([]byte, 8), simtime.NewClock(0))
		return c, w, pageKey{r.ID, 0}
	}
	active := []HostID{0, 1}
	writers := []HostID{1}
	flush := make([]simtime.Seconds, 2)
	clk := simtime.NewClock(0)
	written := make([]pageKey, 1)

	barrier := func(c *Cluster, w *Host, pk pageKey) func() {
		return func() {
			dirtyWord(c, w, pk, 5)
			c.seq++
			c.proto.closePage(pk, writers, c.seq, active, flush)
		}
	}
	release := func(c *Cluster, w *Host, pk pageKey) func() {
		return func() {
			dirtyWord(c, w, pk, 5)
			written[0] = pk
			w.written = written
			if c.flushInterval(w, clk) != 1 {
				t.Fatal("flush made no diff")
			}
		}
	}

	c, w, pk := setup(HLRC)
	if n := testing.AllocsPerRun(200, barrier(c, w, pk)); n != 0 {
		t.Errorf("hlrc barrier close allocates %v times per page, want 0", n)
	}
	c, w, pk = setup(HLRC)
	if n := testing.AllocsPerRun(200, release(c, w, pk)); n != 0 {
		t.Errorf("hlrc lock-release flush allocates %v times per page, want 0", n)
	}
	// The write fault that opens each interval: twin from the page
	// pool, dirty-list entry into the capacity the last close left.
	c, w, pk = setup(HLRC)
	word := make([]byte, page.WordBytes)
	if n := testing.AllocsPerRun(200, func() {
		word[0]++
		writeBytes(w, pk.region, 0, word, clk)
		if c.flushInterval(w, clk) != 1 {
			t.Fatal("flush made no diff")
		}
	}); n != 0 {
		t.Errorf("hlrc write fault plus flush allocates %v times per interval, want 0", n)
	}
	c, w, pk = setup(HLRC)
	home := c.Host(0)
	dirtyWord(c, home, pk, 9) // the home's own open interval: the twin is patched too
	dirtyWord(c, w, pk, 5)
	m := page.Scan(w.pages[pk.region][pk.page].twin, w.pages[pk.region][pk.page].data)
	if n := testing.AllocsPerRun(200, func() { c.applyAtHome(w, home, pk, &m, 1) }); n != 0 {
		t.Errorf("applyAtHome onto a dirty home allocates %v times, want 0", n)
	}

	c, w, pk = setup(Hybrid)
	closeOne := barrier(c, w, pk)
	for i := 0; i < 2*maxChainEntries; i++ {
		closeOne()
	}
	if n := len(c.policy.chains[pk.region][pk.page].entries); n != maxChainEntries {
		t.Fatalf("the hybrid window holds %d entries after %d closes, want its bound %d", n, 2*maxChainEntries, maxChainEntries)
	}
	if n := testing.AllocsPerRun(200, closeOne); n != 0 {
		t.Errorf("hybrid steady-state close retaining a window entry allocates %v times per page, want 0", n)
	}

	c, w, pk = setup(Tmk)
	release(c, w, pk)() // a flush makes the page diff-managed; from then on barrier closes retain diffs too
	if n := testing.AllocsPerRun(200, barrier(c, w, pk)); n > 2 {
		t.Errorf("tmk barrier close allocates %v times per retained diff, want <= 2", n)
	}
	c, w, pk = setup(Tmk)
	if n := testing.AllocsPerRun(200, release(c, w, pk)); n > 2 {
		t.Errorf("tmk lock-release flush allocates %v times per retained diff, want <= 2", n)
	}
}

// TestBarrierAllocationPin pins a barrier nobody wrote before on an
// 8-host cluster (the written-page lists, the flush times, the notice
// accounting): the synchronisation cost is priced on every barrier, so
// pricing it must not add an allocation.
func TestBarrierAllocationPin(t *testing.T) {
	c, _ := newTestCluster(t, 8, 8)
	active := c.ActiveHosts()
	arrivals := make([]simtime.Seconds, len(active))
	c.Barrier(active, arrivals) // warm the per-barrier scratch
	if n := testing.AllocsPerRun(200, func() { c.Barrier(active, arrivals) }); n > 3 {
		t.Errorf("no-write barrier on 8 hosts allocates %v times, want <= 3", n)
	}
}
