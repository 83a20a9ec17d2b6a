package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// homeProtocol is home-based lazy release consistency, the protocol
// family later cluster-OpenMP systems adopted because homeless LRC's
// diff accumulation and garbage-collection costs dominate at scale, and
// it is both of this package's home-based protocols: HLRC is this core
// with no per-page policy, hybrid is the same core with the policy of
// classify.go switched on.
//
// The core, which is all of HLRC:
//
//   - Every page has a home host, assigned round-robin by page across
//     the hosts active at allocation time (the directory owner field
//     doubles as the home).
//   - Writers twin on first write; when an interval closes (barrier,
//     lock release, task handoff) each writer diffs against its twin
//     and pushes the diff to the home eagerly, where it is committed at
//     once — priced, counted and race-checked — while its words are
//     copied into the home's copy only when something first needs them
//     there (settle). A collection therefore only prunes stale copies,
//     at zero cost and zero traffic.
//   - A fault pulls the whole page from the home in one round trip —
//     no writer-by-writer diff chasing — which trades bytes for
//     messages exactly the way the literature describes.
//   - At an adaptation point a leaver's pages re-home across the
//     remaining hosts; joiners receive the page-location map and fault
//     pages in from their homes.
//
// What the policy adds, per page, wherever the core asks it:
//
//   - Home migration. A sole writer that is current at an interval
//     close takes the page's home with it when that costs nothing —
//     either its diff is dense (so future faulters need whole pages
//     and the retained-diff window at the old home is worthless) or
//     the window holds only the writer's own diffs (so nothing is
//     lost by moving it). The flip is a directory update riding the
//     existing close broadcast: no data moves, because the new home
//     already holds the current page. A falsely-shared page whose
//     recent closes are dominated by one writer migrates the hard
//     way: the old home ships the merged page to the dominant writer,
//     priced as a page transfer on the actual src→dst link — paid
//     once, amortized by the dominance requirement.
//   - Diff-density transfer switching. The home retains a bounded
//     window of recently applied diffs. A faulting reader whose stale
//     copy is inside the window pulls just the missing diffs in one
//     message when they are sparse; a reader outside the window, or
//     one whose gap is denser than a page, pulls the whole page.
//     Sparse rotating writers (a claim counter) therefore cost
//     Tmk-like bytes in HLRC-like message counts, while dense writers
//     (a migratory record) keep HLRC's whole-page economics.
//   - Single-writer elision. A page the classifier has proven
//     single-writer (one historical writer, no remote readers), whose
//     writer is its own home and with no other valid copy anywhere,
//     skips twin creation and diff work entirely: with one writer
//     there is no concurrent-writer race to evidence and no reader to
//     serve, so the commit is a sequence-number update. A remote host
//     touching the page later reclassifies it and the elision stops.
//
// Correctness never depends on the policy: with or without it the home
// is current as of the last committed interval, and a retained window,
// when there is one, covers every commit above its floor — so a
// misclassified page pays extra traffic, never wrong data. The policy
// legitimately reshapes traffic and timing, which is why HLRC and
// hybrid each pin their own golden cells.
//
// All transfers are priced through the per-link machine.Costs layer,
// so a slow link to a home, or a loaded home machine, bends these
// costs differently from Tmk's — the divergence bench.Protocols
// measures.
type homeProtocol struct {
	c *Cluster
	// rr is the round-robin cursor for home assignment, advancing
	// across regions so multi-region programs balance too.
	rr int
}

// Kind identifies the protocol by whether the core runs a policy; it
// feeds Cluster.Protocol and panic texts, never a decision.
func (hp *homeProtocol) Kind() ProtocolKind {
	if hp.c.policy == nil {
		return HLRC
	}
	return Hybrid
}

// initRegion assigns each page a round-robin home among the active
// hosts and materialises the zero-filled page there; the master keeps
// a copy as well (it runs the sequential sections), which is current
// because both are zero.
func (hp *homeProtocol) initRegion(r *Region) {
	c := hp.c
	active := c.ActiveHosts()
	m := c.Master()
	for p := 0; p < r.NPages; p++ {
		home := active[hp.rr%len(active)]
		hp.rr++
		c.dir[r.ID][p].owner = home
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
	c.policy.addRegion(r.NPages)
}

func (hp *homeProtocol) leaveStrategy(s LeaveStrategy) LeaveStrategy {
	return hp.c.policy.leaveStrategy(s)
}

// storage reports the retained-window bytes; past the threshold the
// barrier triggers a (free) collection that resets the windows.
// Without a policy no diff outlives its interval close, so there is
// never reclaimable storage and the trigger never fires.
func (hp *homeProtocol) storage() int { return hp.c.policy.storage() }

// fault makes the page readable on h: a copy inside the home's
// retained window pulls just the missing diffs when they are sparse,
// anything else pulls the whole page from the home in one round trip.
func (hp *homeProtocol) fault(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hp.c
	home := c.meta(pk.region, pk.page).owner
	if home == h.id {
		panic(fmt.Sprintf("dsm: %s: home %d of page %d/%d has no valid copy", hp.Kind(), h.id, pk.region, pk.page))
	}
	c.policy.observeRead(pk, h.id)

	st := &h.pages[pk.region][pk.page]
	if st.data != nil {
		if win, wire := c.policy.window(pk, st.appliedSeq); len(win) > 0 {
			clk.Advance(c.fetchDiffs(h, c.Host(home), wire, len(win)))
			for _, e := range win {
				e.diff.Apply(st.data)
			}
			st.appliedSeq = c.Host(home).pages[pk.region][pk.page].appliedSeq
			st.valid = true
			return
		}
	}
	data, applied := c.copyPageFrom(h, c.Host(home), pk, "home", clk)
	c.releasePage(st.data)
	st.data = data
	st.appliedSeq = applied
	st.valid = true
}

// pushToHome ships the diff a taken mask describes, of the given wire
// size, to the page's home and commits it there, charging the one-way
// push to clk and recording the push and the home's ack on the fabric.
// For a writer that is its own home only the sequence commit remains:
// its copy already carries the words.
func (c *Cluster) pushToHome(h *Host, pk pageKey, home HostID, m *page.Mask, wire int, s int32, clk *simtime.Clock) {
	if home == h.id {
		st := &h.pages[pk.region][pk.page]
		st.appliedSeq = s
		st.valid = true
		return
	}
	hh := c.Host(home)
	c.fabric.Record(h.machine, hh.machine, wire+msgHeader)
	c.fabric.Record(hh.machine, h.machine, msgHeader)
	clk.Advance(c.costs.DiffFlush(h.machine, hh.machine, wire))
	c.stats.HomeFlushes++
	c.stats.HomeFlushBytes += int64(wire)
	c.applyAtHome(h, hh, pk, m, s)
}

// applyAtHome commits a pushed diff at the home. A clean home copies
// nothing: it records the writer as the source of its pending words
// (the masked words of the writer's live page, see takeMask) — adding
// the mask to the source's earlier pending words, or first settling
// another source's — and settle copies them when something needs them.
//
// A home with the page dirty in its own open interval takes the words
// at once. They must be disjoint from the home's own modified words —
// an overlap is the sub-word race the Tmk paths panic on, and must be
// caught *before* the copy destroys the evidence — and they go into the
// twin as well, so the home's eventual flush carries only its own (a
// write-once home's changed units already lack them: they are
// disjoint). A home holding the page elided (dirty, no twin) has no
// diffable evidence — its sole-writer proof already failed if a remote
// diff arrives — so the check is skipped and the words merge (they are
// disjoint in a race-free program). A dirty home has no pending words:
// its first write settled them.
func (c *Cluster) applyAtHome(from, hh *Host, pk pageKey, m *page.Mask, s int32) {
	st := &hh.pages[pk.region][pk.page]
	if st.data == nil {
		panic(fmt.Sprintf("dsm: %s: home %d of page %d/%d holds no copy", c.proto.Kind(), hh.id, pk.region, pk.page))
	}
	if st.lent > 0 {
		c.recall(hh, pk) // last moment the copy is the borrowers' pre-image
	}
	switch pd := &c.pend[pk.region][pk.page]; {
	case st.dirty:
		src := from.pages[pk.region][pk.page].data
		if own, ok := hh.ownMask(st); ok {
			if w, ok := m.FirstOverlap(&own); ok {
				panic(c.wordRaceMessage(from.id, hh.id, pk, w, "without synchronisation"))
			}
			if st.twin != nil {
				m.Copy(st.twin, src)
			}
		}
		m.Copy(st.data, src)
	case st.pending && pd.src == from.id:
		for i := range pd.mask {
			pd.mask[i] |= m[i]
		}
	default:
		c.settle(hh, pk)
		pd.src, pd.mask = from.id, *m
		st.pending = true
	}
	st.appliedSeq = s
	st.valid = true
}

// pendingDiff names the words a home's copy of one page lacks: the
// union of the masks its source pushed since the copy was last settled.
// Their values are in the source's live page.
type pendingDiff struct {
	src  HostID
	mask page.Mask
}

// settle copies the pending words of hh's copy of pk, which hh must be
// the home of, from the source's live page, at no simulated cost: the
// push that sent them was priced and counted. It runs before anything
// reads or writes the home's copy, and before anything other than the
// source's own write-once stores changes or frees the source's copy
// (DESIGN.md "Home settlement"). Until then the source's page holds the
// committed value of every pending word, except words the source has
// since stored through a write-once span in its open interval, which no
// race-free reader reads before the source's next commit pushes them
// again.
func (c *Cluster) settle(hh *Host, pk pageKey) {
	st := &hh.pages[pk.region][pk.page]
	if !st.pending {
		return
	}
	if home := c.meta(pk.region, pk.page).owner; home != hh.id {
		panic(fmt.Sprintf("dsm: %s: host %d holds pending words of page %d/%d, homed at %d", c.proto.Kind(), hh.id, pk.region, pk.page, home))
	}
	pd := &c.pend[pk.region][pk.page]
	pd.mask.Copy(st.data, c.Host(pd.src).pages[pk.region][pk.page].data)
	st.pending = false
}

// settleHome settles the copy of pk's home.
func (c *Cluster) settleHome(pk pageKey) {
	if c.homeBased {
		c.settle(c.Host(c.meta(pk.region, pk.page).owner), pk)
	}
}

// settleFrom settles the copy of pk's home if h is the source of its
// pending words.
func (c *Cluster) settleFrom(h *Host, pk pageKey) {
	if !c.homeBased {
		return
	}
	hh := c.Host(c.meta(pk.region, pk.page).owner)
	if hh.pages[pk.region][pk.page].pending && c.pend[pk.region][pk.page].src == h.id {
		c.settle(hh, pk)
	}
}

// mergeOverHomePage brings a stale dirty copy current when no diff
// window can patch it: the home's current page is fetched and becomes
// both the new twin and the new copy, and the host's own modified
// words are overlaid from the old copy (they are disjoint from the
// committed words in a race-free program). A write-once page keeps its
// carried mask, which is those words, and takes no twin.
func (c *Cluster) mergeOverHomePage(h *Host, pk pageKey, home HostID, clk *simtime.Clock) {
	st := &h.pages[pk.region][pk.page]
	old := st.data
	own, _ := h.ownMask(st)

	data, applied := c.copyPageFrom(h, c.Host(home), pk, "home", clk)
	if st.twin != nil {
		c.releasePage(st.twin)
		st.twin = c.pagePool.Copy(data)
	}
	st.data = data
	own.Copy(st.data, old)
	c.releasePage(old)
	st.appliedSeq = applied
}

// elided reports whether st is dirty with no twin, its own or
// borrowed, and no carried mask: a first write the policy let skip its
// twin, to be committed without a diff.
func (st *pageState) elided() bool {
	return st.dirty && st.twin == nil && !st.borrowed && st.once == 0
}

// borrow decides whether h's first write to pk in this interval may use
// the home's copy as its twin instead of copying its own page, and if
// so marks st borrowed. The pre-image then has a second holder exactly
// when h is not the home, h's copy is current, and the home's copy is
// valid, current and clean: two clean current copies agree (the
// invariant CheckInvariants asserts), and takeMask scans against the
// home's. Everything that could change the home's copy, or make another
// host the home, calls recall first. Tmk never borrows: a homeless page
// has no second holder.
func (c *Cluster) borrow(h *Host, pk pageKey, st *pageState) bool {
	if !c.homeBased {
		return false
	}
	pm := c.meta(pk.region, pk.page)
	latest := pm.latestSeq()
	hst := &c.Host(pm.owner).pages[pk.region][pk.page]
	if pm.owner == h.id || st.appliedSeq < latest || !hst.valid || hst.dirty || hst.appliedSeq < latest {
		return false
	}
	st.borrowed = true
	hst.lent++
	return true
}

// recall gives every host borrowing hh's copy of pk a twin of its own,
// copied from that copy while it is still the pre-image.
func (c *Cluster) recall(hh *Host, pk pageKey) {
	hst := &hh.pages[pk.region][pk.page]
	for _, b := range c.hosts {
		if st := &b.pages[pk.region][pk.page]; st.borrowed {
			st.twin = c.pagePool.Copy(hst.data)
			st.borrowed = false
			hst.lent--
		}
	}
}

// commitElided commits interval s for an elided page at its writer w,
// which is its own home (the home cannot have moved while the page was
// elided: every re-homing path refuses an elided home): no diff exists,
// so the page is conservatively assumed changed, the commit is a
// sequence update, and the window cannot cover the interval.
func (hp *homeProtocol) commitElided(pk pageKey, pm *pageMeta, w HostID, s int32) {
	if pm.owner != w {
		panic(fmt.Sprintf("dsm: %s: elided page %d/%d closed by %d but homed at %d", hp.Kind(), pk.region, pk.page, w, pm.owner))
	}
	st := &hp.c.Host(w).pages[pk.region][pk.page]
	st.dirty = false
	st.appliedSeq = s
	pm.baseSeq = s
	hp.c.stats.ElidedDiffs++
	hp.c.policy.advance(pk, s)
}

// takeHome lets a current sole writer w, closing with a diff of the
// given wire size, take the page's home with it when the policy says
// that costs nothing. A home holding the page elided is never flipped
// away from — its uncommitted words exist nowhere else.
func (hp *homeProtocol) takeHome(pk pageKey, pm *pageMeta, w HostID, wire int) {
	c := hp.c
	old := c.Host(pm.owner)
	if pm.owner == w || !c.policy.wantFlip(pk, w, wire) || old.pages[pk.region][pk.page].elided() {
		return
	}
	if old.pages[pk.region][pk.page].lent > 0 {
		c.recall(old, pk) // takeMask looks the pre-image up at the page's home
	}
	c.settle(old, pk) // pending words live only at the page's home
	pm.owner = w
	c.policy.homeMoved(pk, w)
}

// commitOwn commits interval s for a twinned page that h alone wrote.
// The diff is taken first: a rewrite of the same values commits nothing
// and invalidates nobody (under a shifting schedule another host's
// still-current copy must survive an unchanged close), and the empty
// mask is returned. Otherwise a writer whose pre-write copy was current
// may take the home with it (see takeHome), and the diff is pushed to
// the home and retained in its window. Both costs are charged to clk.
func (hp *homeProtocol) commitOwn(h *Host, pk pageKey, pm *pageMeta, s int32, clk *simtime.Clock) (m page.Mask, wasCurrent bool) {
	c := hp.c
	st := &h.pages[pk.region][pk.page]
	wasCurrent = st.appliedSeq >= pm.latestSeq()
	m = c.takeMask(h, pk, clk)
	if m.Empty() {
		return m, wasCurrent
	}
	wire := m.WireSize()
	if wasCurrent {
		hp.takeHome(pk, pm, h.id, wire)
	}
	c.pushToHome(h, pk, pm.owner, &m, wire, s, clk)
	c.policy.retain(pk, s, h.id, &m, wire, st.data)
	pm.baseSeq = s
	return m, wasCurrent
}

// closePage commits interval s for one page at a barrier (or a forced
// interval close), dispatching to the sole-writer or concurrent-writer
// path.
func (hp *homeProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	pm := c.meta(pk.region, pk.page)
	c.policy.observeClose(pk, writers)
	if len(writers) == 1 {
		hp.closeSole(pk, pm, writers[0], s, active, flush)
		return
	}
	hp.closeMulti(pk, pm, writers, s, active, flush)
}

// closeSole commits a close with exactly one writer.
func (hp *homeProtocol) closeSole(pk pageKey, pm *pageMeta, w HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	h := c.Host(w)
	st := &h.pages[pk.region][pk.page]
	if st.elided() {
		hp.commitElided(pk, pm, w, s)
		hp.invalidateStale(pk, w, s, active)
		return
	}

	clk := simtime.NewClock(flush[w])
	m, wasCurrent := hp.commitOwn(h, pk, pm, s, clk)
	flush[w] = clk.Now()
	if m.Empty() {
		return
	}

	// A writer that was current stays so (its copy equals the home's);
	// one that missed interim commits lacks their words and goes
	// invalid, and the home alone is current.
	keep := w
	if !wasCurrent {
		st.valid = false
		keep = pm.owner
	}
	hp.invalidateStale(pk, keep, s, active)
}

// closeMulti commits a close with concurrent writers: every diff is
// taken first, word-disjointness is asserted while the evidence is
// intact, only then is each diff pushed to (and retained at) the home,
// and the dominance rule may migrate the home with a paid page
// transfer.
func (hp *homeProtocol) closeMulti(pk pageKey, pm *pageMeta, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	home := pm.owner
	prevLatest := pm.latestSeq()

	elided := false
	var buf [4]writerMask // more concurrent writers of one page spill to the heap
	made := buf[:0]
	for _, w := range writers {
		h := c.Host(w)
		if h.pages[pk.region][pk.page].elided() {
			// An elided home caught with a concurrent writer: its words
			// are already in its own (the home's) copy; no evidence
			// diff exists.
			hp.commitElided(pk, pm, w, s)
			elided = true
			continue
		}
		clk := simtime.NewClock(0)
		m := c.takeMask(h, pk, clk)
		flush[w] += clk.Now()
		if !m.Empty() {
			made = append(made, writerMask{writer: w, mask: m})
		}
	}
	c.checkWordRaces(pk, made)
	if len(made) == 0 && !elided {
		return // twins consumed, nothing changed
	}
	for i := range made {
		wm := &made[i]
		clk := simtime.NewClock(0)
		wire := wm.mask.WireSize()
		c.pushToHome(c.Host(wm.writer), pk, home, &wm.mask, wire, s, clk)
		flush[wm.writer] += clk.Now()
		if !elided {
			c.policy.retain(pk, s, wm.writer, &wm.mask, wire, c.Host(wm.writer).pages[pk.region][pk.page].data)
		}
	}
	pm.baseSeq = s

	// A sole diff from a writer whose pre-write copy was current leaves
	// that writer current; every other non-home copy lacks words.
	keep := home
	if !elided && len(made) == 1 && c.Host(made[0].writer).pages[pk.region][pk.page].appliedSeq >= prevLatest {
		keep = made[0].writer
	}
	hp.invalidateStale(pk, keep, s, active)

	// Dominant-writer migration: the old home ships the merged page to
	// the writer the policy names, across the actual link.
	if dom, ok := c.policy.dominant(pk); ok && dom != home && c.Host(dom).active {
		if c.Host(home).pages[pk.region][pk.page].lent != 0 {
			// Every writer's takeMask above returned its borrow.
			panic(fmt.Sprintf("dsm: %s: page %d/%d migrates from home %d while lent", hp.Kind(), pk.region, pk.page, home))
		}
		clk := simtime.NewClock(0)
		data, applied := c.copyPageFrom(c.Host(dom), c.Host(home), pk, "home", clk)
		flush[dom] += clk.Now()
		dst := &c.Host(dom).pages[pk.region][pk.page]
		c.releasePage(dst.data)
		dst.data = data
		dst.appliedSeq = applied
		dst.valid = true
		pm.owner = dom
		c.policy.homeMoved(pk, dom)
		c.stats.HomeMigrationBytes += page.Size
	}
}

// invalidateStale invalidates every active copy other than keep's that
// misses interval s. keep (the current sole writer or the home)
// advances to s instead.
func (hp *homeProtocol) invalidateStale(pk pageKey, keep HostID, s int32, active []HostID) {
	for _, id := range active {
		st := &hp.c.Host(id).pages[pk.region][pk.page]
		if id == keep {
			if st.valid {
				st.appliedSeq = s
			}
		} else if st.valid && st.appliedSeq < s {
			st.valid = false
		}
	}
}

// commitRelease commits interval s for one page h wrote, on a release
// path: an elided page by a sequence update, any other by pushing its
// diff to the home (which a current writer may first take with it, see
// takeHome) and retaining it in the window. A writer that is not the
// home stays valid only if its copy was current before the write.
func (hp *homeProtocol) commitRelease(h *Host, pk pageKey, pm *pageMeta, s int32, clk *simtime.Clock) (page.Mask, bool) {
	soleWriter := [1]HostID{h.id}
	hp.c.policy.observeClose(pk, soleWriter[:])
	st := &h.pages[pk.region][pk.page]
	if st.elided() {
		hp.commitElided(pk, pm, h.id, s)
		return page.Mask{}, true
	}
	m, wasCurrent := hp.commitOwn(h, pk, pm, s, clk)
	if !m.Empty() && pm.owner != h.id {
		if wasCurrent {
			st.appliedSeq = s // current: old value plus own writes
		} else {
			st.valid = false // concurrent writers under other locks
		}
	}
	return m, false
}

// missingDiffs serves an acquire-side upgrade of h's stale dirty copy
// from the home's window in one priced message; when the window cannot
// patch the copy there are no diffs to hand back, and the copy is merged
// over a fresh home page instead (mergeOverHomePage).
func (hp *homeProtocol) missingDiffs(h *Host, pk pageKey, meta *pageMeta, after, upTo int32, clk *simtime.Clock) []chainEntry {
	c := hp.c
	win, wire := c.policy.window(pk, after)
	if len(win) == 0 {
		c.mergeOverHomePage(h, pk, meta.owner, clk)
		return nil
	}
	clk.Advance(c.fetchDiffs(h, c.Host(meta.owner), wire, len(win)))
	return win
}

// runGC has nothing to do for a home-based protocol: homes are always
// current, so the collection is the Cluster's sweep alone
// (settlePage: stale copies pruned, sequence numbers normalised, the
// policy reset) — no pulls happen and no time or traffic is charged.
func (hp *homeProtocol) runGC(active []HostID) simtime.Seconds { return 0 }
