package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// hlrcProtocol is home-based lazy release consistency, the protocol
// family later cluster-OpenMP systems adopted because homeless LRC's
// diff accumulation and garbage-collection costs dominate at scale:
//
//   - Every page has a home host, assigned round-robin by page across
//     the hosts active at allocation time (the directory owner field
//     doubles as the home).
//   - Writers still twin on first write, but when an interval closes
//     (barrier, lock release, task handoff) each writer diffs against
//     its twin and pushes the diff to the home eagerly, where it is
//     applied at once. No diff outlives its interval close, so there
//     is nothing to garbage-collect: runGCLocked only prunes stale
//     copies, at zero cost and zero traffic.
//   - A fault pulls the whole page from the home in one round trip —
//     no writer-by-writer diff chasing — which trades bytes for
//     messages exactly the way the literature describes.
//   - At an adaptation point a leaver's pages re-home round-robin
//     across the remaining hosts, like a departing worker's task
//     deque; joiners receive the page-location map and fault pages in
//     from their homes.
//
// All transfers are priced through the per-link machine.Costs layer,
// so a slow link to a home, or a loaded home machine, bends HLRC's
// costs differently from Tmk's — the divergence bench.Protocols
// measures.
type hlrcProtocol struct {
	c *Cluster
	// rr is the round-robin cursor for home assignment, advancing
	// across regions so multi-region programs balance too.
	rr int
}

// Kind identifies the protocol.
func (hp *hlrcProtocol) Kind() ProtocolKind { return HLRC }

// initRegion assigns each page a round-robin home among the active
// hosts and materialises the zero-filled page there; the master keeps
// a copy as well (it runs the sequential sections), which is current
// because both are zero.
func (hp *hlrcProtocol) initRegion(r *Region) {
	c := hp.c
	active := c.ActiveHosts()
	m := c.Master()
	for p := 0; p < r.NPages; p++ {
		home := active[hp.rr%len(active)]
		hp.rr++
		c.dir.pages[r.ID][p].owner = home
		hh := c.Host(home)
		st := &hh.pages[r.ID][p]
		st.data = c.newPage()
		st.valid = true
		if home != m.id {
			st := &m.pages[r.ID][p]
			st.data = c.newPage()
			st.valid = true
		}
	}
}

// leaveStrategy: a leaver's pages always re-home round-robin across
// the remaining hosts, regardless of the configured Tmk handoff.
func (hp *hlrcProtocol) leaveStrategy(LeaveStrategy) LeaveStrategy { return LeaveDirectHandoff }

// storageLocked: no diff ever outlives its interval close, so there is
// never reclaimable storage and the barrier GC trigger never fires.
func (hp *hlrcProtocol) storageLocked() int { return 0 }

// elideTwin: HLRC always twins on first write.
func (hp *hlrcProtocol) elideTwin(*Host, pageKey) bool { return false }

// fault pulls the whole page from its home in one round trip.
func (hp *hlrcProtocol) fault(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hp.c
	meta := c.dir.meta(pk.region, pk.page)
	if meta.owner == h.id {
		panic(fmt.Sprintf("dsm: hlrc: home %d of page %d/%d has no valid copy", h.id, pk.region, pk.page))
	}
	data, applied := c.copyPageFrom(h, c.Host(meta.owner), pk, "home", clk)
	st := &h.pages[pk.region][pk.page]
	c.releasePage(st.data)
	st.data = data
	st.appliedSeq = applied
	st.valid = true
}

// pushToHome ships the diff a taken mask describes to the page's home
// and applies it there, charging the one-way push to clk and recording
// the push and the home's ack on the fabric. For a writer that is its
// own home only the sequence commit remains: its copy already carries
// the words. Shared by the two home-based protocols.
func (c *Cluster) pushToHome(h *Host, pk pageKey, home HostID, m *page.Mask, s int32, clk *simtime.Clock) {
	if home == h.id {
		st := &h.pages[pk.region][pk.page]
		st.appliedSeq = s
		st.valid = true
		return
	}
	hh := c.Host(home)
	wire := m.WireSize()
	c.fabric.Record(h.machine, hh.machine, wire+msgHeader)
	c.fabric.Record(hh.machine, h.machine, msgHeader)
	clk.Advance(c.costs.DiffFlush(h.machine, hh.machine, wire))
	c.stats.HomeFlushes.Add(1)
	c.stats.HomeFlushBytes.Add(int64(wire))
	c.applyAtHome(h, hh, pk, m, s)
}

// applyAtHome applies a pushed diff to the home's copy: the masked
// words go straight from the writer's live page (see takeMask) into
// the home's. If the home has the page dirty in its own open interval,
// the incoming words must be disjoint from the home's own modified
// words — an overlap is the sub-word race the Tmk paths panic on, and
// must be caught *before* the apply destroys the evidence — and the
// words go into the twin as well, so the home's eventual flush carries
// only its own. A hybrid home holding the page elided (dirty, no twin)
// has no diffable evidence — its sole-writer proof already failed if a
// remote diff arrives — so the check is skipped and the words merge
// (they are disjoint in a race-free program).
func (c *Cluster) applyAtHome(from, hh *Host, pk pageKey, m *page.Mask, s int32) {
	st := &hh.pages[pk.region][pk.page]
	if st.data == nil {
		panic(fmt.Sprintf("dsm: %s: home %d of page %d/%d holds no copy", c.proto.Kind(), hh.id, pk.region, pk.page))
	}
	src := from.pages[pk.region][pk.page].data
	if st.dirty && st.twin != nil {
		own := page.Scan(st.twin, st.data)
		if w, ok := m.FirstOverlap(&own); ok {
			panic(c.wordRaceMessage(from.id, hh.id, pk, w, "without synchronisation"))
		}
		m.Copy(st.twin, src)
	}
	m.Copy(st.data, src)
	st.appliedSeq = s
	st.valid = true
}

// mergeOverHomePage brings a stale dirty copy current when no diff
// window can patch it: the home's current page is fetched and becomes
// both the new twin and the new copy, and the host's own modified
// words are overlaid from the old copy (they are disjoint from the
// committed words in a race-free program).
func (c *Cluster) mergeOverHomePage(h *Host, pk pageKey, home HostID, clk *simtime.Clock) {
	st := &h.pages[pk.region][pk.page]
	old := st.data
	own := page.Scan(st.twin, old)
	c.releasePage(st.twin)

	data, applied := c.copyPageFrom(h, c.Host(home), pk, "home", clk)
	st.twin = c.pagePool.Copy(data)
	st.data = data
	own.Copy(st.data, old)
	c.releasePage(old)
	st.appliedSeq = applied
}

// closePage commits interval s for one page at a barrier: every
// writer's diff is taken first, the writers' sub-word disjointness is
// asserted while the evidence is intact, and only then is each diff
// pushed to (and applied at) the home and stale copies invalidated.
func (hp *hlrcProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	pm := c.dir.metaLocked(pk.region, pk.page)
	home := pm.owner
	prevLatest := pm.latestSeq()

	var buf [4]writerMask // more concurrent writers of one page spill to the heap
	made := buf[:0]
	for _, w := range writers {
		clk := simtime.NewClock(0)
		m := c.takeMask(c.Host(w), pk, clk)
		flush[w] += clk.Now()
		if !m.Empty() {
			made = append(made, writerMask{writer: w, mask: m})
		}
	}
	c.checkWordRaces(pk, made)
	if len(made) == 0 {
		return // twins consumed, nothing changed
	}
	for i := range made {
		wm := &made[i]
		clk := simtime.NewClock(0)
		c.pushToHome(c.Host(wm.writer), pk, home, &wm.mask, s, clk)
		flush[wm.writer] += clk.Now()
	}
	pm.baseSeq = s // latestSeq: the home is current as of s

	// Invalidate stale copies. A sole writer whose pre-write copy was
	// current is itself current (its copy equals the home's); every
	// other non-home copy now lacks words and goes invalid.
	sole := HostID(-1)
	if len(made) == 1 {
		sole = made[0].writer
	}
	for _, id := range active {
		if id == home {
			continue
		}
		h := c.Host(id)
		st := &h.pages[pk.region][pk.page]
		if id == sole && st.valid && st.appliedSeq >= prevLatest {
			st.appliedSeq = s
		} else if st.valid && st.appliedSeq < s {
			st.valid = false
		}
	}
}

// flushIntervalLocked commits h's open interval on a release path:
// each written page's diff is pushed to its home, the page goes on the
// release log so later acquirers honour the writes, and concurrent
// dirty peers are checked for sub-word races. The caller holds the
// directory write lock.
func (hp *hlrcProtocol) flushIntervalLocked(h *Host, clk *simtime.Clock) int {
	c := hp.c
	c.seq++
	s := c.seq
	made := 0
	for _, pk := range h.takeWritten() {
		pm := c.dir.metaLocked(pk.region, pk.page)
		prevLatest := pm.latestSeq()
		st := &h.pages[pk.region][pk.page]
		wasCurrent := st.appliedSeq >= prevLatest

		m := c.takeMask(h, pk, clk)
		if m.Empty() {
			continue
		}
		c.pushToHome(h, pk, pm.owner, &m, s, clk)
		if pm.owner != h.id {
			if wasCurrent {
				st.appliedSeq = s // current: old value plus own writes
			} else {
				st.valid = false // concurrent writers under other locks
			}
		}
		pm.baseSeq = s
		c.releaseLog = append(c.releaseLog, relEntry{pk: pk, seq: s})
		made++
		c.checkDirtyPeerRaces(h.id, pk, &m)
	}
	if made > 0 && shouldPrune(len(c.releaseLog)) {
		c.pruneReleaseLog()
	}
	return made
}

// upgradeOrInvalidate performs acquire-side consistency for one page:
// a stale clean copy goes invalid (the next fault pulls the page from
// the home), a stale dirty copy is merged in place — the home's
// current page is fetched, becomes the new twin, and the host's own
// modified words are overlaid (mergeOverHomePage).
func (hp *hlrcProtocol) upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hp.c
	meta := c.dir.meta(pk.region, pk.page)
	latest := meta.latestSeq()
	st := &h.pages[pk.region][pk.page]
	if !st.valid || st.appliedSeq >= latest {
		return
	}
	if !st.dirty {
		st.valid = false
		return
	}
	c.mergeOverHomePage(h, pk, meta.owner, clk)
}

// runGCLocked is trivial under HLRC: homes are always current, so the
// pass only prunes stale copies and normalises sequence numbers to
// restore the adaptation invariant (owner valid and current, every
// other copy valid-and-current or absent). No diffs exist, no pulls
// happen, and no time or traffic is charged.
func (hp *hlrcProtocol) runGCLocked(active []HostID) simtime.Seconds {
	c := hp.c
	gcSeq := c.seq
	c.stats.GCs.Add(1)
	for ri := range c.dir.pages {
		r := RegionID(ri)
		for p := range c.dir.pages[ri] {
			pm := &c.dir.pages[ri][p]
			latest := pm.latestSeq()
			for _, h := range c.hosts {
				st := &h.pages[r][p]
				c.releasePage(st.twin)
				st.twin = nil
				st.dirty = false
				switch {
				case h.id == pm.owner:
					if st.data == nil {
						panic(fmt.Sprintf("dsm: hlrc: gc: home %d of page %d/%d holds no copy", pm.owner, r, p))
					}
					st.appliedSeq = gcSeq
				case st.valid && st.appliedSeq >= latest:
					st.appliedSeq = gcSeq
				default:
					c.releasePage(st.data)
					st.data = nil
					st.valid = false
					st.appliedSeq = 0
				}
			}
			pm.clearNotices()
			pm.baseSeq = gcSeq
		}
	}
	c.releaseLog = c.releaseLog[:0]
	return 0
}
