package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// hybridProtocol is the adaptive per-page coherence protocol: a
// home-based (HLRC-style) baseline whose mechanics specialize per page
// according to the classifier in classify.go.
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
//     one whose gap is denser than a page, pulls the whole page as
//     HLRC would. Sparse rotating writers (a claim counter) therefore
//     cost Tmk-like bytes in HLRC-like message counts, while dense
//     writers (a migratory record) keep HLRC's whole-page economics.
//   - Single-writer elision. A page the classifier has proven
//     single-writer (one historical writer, no remote readers), whose
//     writer is its own home and with no other valid copy anywhere,
//     skips twin creation and diff work entirely: with one writer
//     there is no concurrent-writer race to evidence and no reader to
//     serve, so the commit is a sequence-number update. A remote host
//     touching the page later reclassifies it and the elision stops.
//
// Correctness never depends on the classifier: every specialization
// preserves "the home is current as of the last committed interval",
// so a misclassified page pays extra traffic, never wrong data. The
// Tmk and HLRC implementations are untouched; hybrid legitimately
// reshapes traffic and timing, which is why it pins its own golden
// cells instead of sharing the parents'.
type hybridProtocol struct {
	c *Cluster
	// rr is the round-robin home-assignment cursor (as in HLRC).
	rr int
	// recs/chains hold the per-page classifier history and retained
	// diff windows, indexed like the directory ([region][page]).
	recs   [][]classRec
	chains [][]homeChain
	// retained is the total wire size of all retained diffs, the
	// protocol's reclaimable storage.
	retained int
}

// chainEntry is one retained diff: the interval it committed, the
// writer that authored it, its wire size (what the window bounds and
// the transfer pricing count) and the diff itself. diff is nil for an
// entry of a page or more on the wire: any window containing it is at
// least a page too, and window transfers are only ever chosen below
// one page, so its payload could never be served.
type chainEntry struct {
	seq    int32
	writer HostID
	wire   int
	diff   *page.Diff
}

// homeChain is the home-retained diff window of one page. Invariant:
// every interval committed to the page with sequence in (floor,
// latest] is present as entries (commits that retained no diff raise
// floor instead), so a copy with appliedSeq >= floor can be patched
// current by applying the entries newer than it, in order.
type homeChain struct {
	floor   int32
	entries []chainEntry
	bytes   int
}

const (
	// maxChainEntries/maxChainBytes bound one page's retained window;
	// beyond either the oldest interval is dropped and the floor rises.
	// The byte bound (one page per page: retaining more than a page of
	// diffs can never beat re-sending the page) is the real storage cap;
	// the entry bound only backstops degenerate empty-diff streams, and
	// must stay deep enough that a slow host revisiting a sparsely
	// written page after many closes still lands inside the window.
	maxChainEntries = 64
	maxChainBytes   = page.Size
	// denseFlipWire: a sole writer whose close diff reaches half a page
	// takes the home with it — faulters of so dense a page need whole
	// pages anyway, so the push to a remote home buys nothing.
	denseFlipWire = page.Size / 2
	// domMigrateRun: consecutive closes one writer must dominate before
	// a falsely-shared page's home migrates to it with a paid transfer.
	domMigrateRun = 3
)

// Kind identifies the protocol.
func (hy *hybridProtocol) Kind() ProtocolKind { return Hybrid }

func (hy *hybridProtocol) rec(pk pageKey) *classRec {
	return &hy.recs[pk.region][pk.page]
}

func (hy *hybridProtocol) chain(pk pageKey) *homeChain {
	return &hy.chains[pk.region][pk.page]
}

// retain appends a committed diff to the page's window, dropping the
// oldest intervals when the bounds are exceeded. The payload is packed
// from src, the writer's live page (see takeMask).
func (hy *hybridProtocol) retain(ch *homeChain, seq int32, w HostID, m *page.Mask, src []byte) {
	e := chainEntry{seq: seq, writer: w, wire: m.WireSize()}
	if e.wire < page.Size {
		e.diff = m.Pack(src)
	}
	ch.entries = append(ch.entries, e)
	ch.bytes += e.wire
	hy.retained += e.wire
	for len(ch.entries) > maxChainEntries || ch.bytes > maxChainBytes {
		// Drop the oldest interval whole: the floor must never split
		// the entries of one close.
		s := ch.entries[0].seq
		if s == seq {
			break // never evict the interval being committed
		}
		i := 0
		for i < len(ch.entries) && ch.entries[i].seq == s {
			n := ch.entries[i].wire
			ch.bytes -= n
			hy.retained -= n
			i++
		}
		ch.entries = append(ch.entries[:0], ch.entries[i:]...)
		ch.floor = s
	}
}

// advance commits interval seq without a retained diff: the floor
// rises, and entries the floor passed are dropped.
func (hy *hybridProtocol) advance(ch *homeChain, seq int32) {
	if seq > ch.floor {
		ch.floor = seq
	}
	i := 0
	for i < len(ch.entries) && ch.entries[i].seq <= ch.floor {
		n := ch.entries[i].wire
		ch.bytes -= n
		hy.retained -= n
		i++
	}
	if i > 0 {
		ch.entries = append(ch.entries[:0], ch.entries[i:]...)
	}
}

// keepOnly drops every entry not authored by w — a home flip carries
// only the new home's own diffs — raising the floor past the drops.
func (hy *hybridProtocol) keepOnly(ch *homeChain, w HostID) {
	floor := ch.floor
	for _, e := range ch.entries {
		if e.writer != w && e.seq > floor {
			floor = e.seq
		}
	}
	if floor == ch.floor {
		return
	}
	kept := ch.entries[:0]
	bytes := 0
	for _, e := range ch.entries {
		if e.writer == w && e.seq > floor {
			kept = append(kept, e)
			bytes += e.wire
		}
	}
	hy.retained += bytes - ch.bytes
	ch.entries = kept
	ch.bytes = bytes
	ch.floor = floor
}

// onlyWriter reports whether every retained entry was authored by w.
func (ch *homeChain) onlyWriter(w HostID) bool {
	for _, e := range ch.entries {
		if e.writer != w {
			return false
		}
	}
	return true
}

// window returns the entries with sequence > after and their total
// wire size.
func (ch *homeChain) window(after int32) ([]chainEntry, int) {
	i := 0
	for i < len(ch.entries) && ch.entries[i].seq <= after {
		i++
	}
	win := ch.entries[i:]
	wire := 0
	for _, e := range win {
		wire += e.wire
	}
	return win, wire
}

// initRegion assigns round-robin homes exactly as HLRC does (the
// master keeps a copy too, for the sequential sections) and grows the
// classifier and window tables.
func (hy *hybridProtocol) initRegion(r *Region) {
	c := hy.c
	active := c.ActiveHosts()
	m := c.Master()
	for p := 0; p < r.NPages; p++ {
		home := active[hy.rr%len(active)]
		hy.rr++
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
	hy.recs = append(hy.recs, newClassRecs(r.NPages))
	hy.chains = append(hy.chains, make([]homeChain, r.NPages))
}

// leaveStrategy: migrated homes sit at their writers like Tmk owners,
// so hybrid honours the configured handoff instead of forcing the
// round-robin re-home HLRC needs.
func (hy *hybridProtocol) leaveStrategy(s LeaveStrategy) LeaveStrategy { return s }

// storageLocked reports the retained-window bytes; past the threshold
// the barrier triggers a (free) collection that resets the windows.
func (hy *hybridProtocol) storageLocked() int { return hy.retained }

// elideTwin implements the single-writer elision decision for one
// first-write fault: the page must be classified single-writer with h
// as that writer, h must be its home, and no other host may hold a
// valid copy. Counted, and the caller skips twin creation entirely.
func (hy *hybridProtocol) elideTwin(h *Host, pk pageKey) bool {
	cr := hy.rec(pk)
	if cr.class != classSingleWriter || cr.writerA != h.id {
		return false
	}
	c := hy.c
	if c.dir.meta(pk.region, pk.page).owner != h.id {
		return false
	}
	for _, o := range c.hosts {
		if o.id != h.id && o.pages[pk.region][pk.page].valid {
			return false
		}
	}
	c.stats.ElidedTwins.Add(1)
	return true
}

// fault makes the page readable on h: a copy inside the home's
// retained window pulls just the missing diffs when they are sparse,
// anything else pulls the whole page from the home.
func (hy *hybridProtocol) fault(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hy.c
	meta := c.dir.meta(pk.region, pk.page)
	home := meta.owner
	if home == h.id {
		panic(fmt.Sprintf("dsm: hybrid: home %d of page %d/%d has no valid copy", h.id, pk.region, pk.page))
	}
	cr := hy.rec(pk)
	cr.observeRead(h.id)
	cr.setClass(&c.stats, cr.classify())

	st := &h.pages[pk.region][pk.page]
	ch := hy.chain(pk)
	if st.data != nil && st.appliedSeq >= ch.floor {
		if win, wire := ch.window(st.appliedSeq); len(win) > 0 && wire < page.Size {
			hy.fetchWindow(h, c.Host(home), win, wire, clk)
			for _, e := range win {
				e.diff.Apply(st.data)
			}
			st.appliedSeq = c.Host(home).pages[pk.region][pk.page].appliedSeq
			st.valid = true
			return
		}
	}
	data, applied := c.copyPageFrom(h, c.Host(home), pk, "home", clk)
	st = &h.pages[pk.region][pk.page]
	c.releasePage(st.data)
	st.data = data
	st.appliedSeq = applied
	st.valid = true
}

// fetchWindow prices one bundled diff-window transfer from the home:
// one request, one response carrying every missing diff.
func (hy *hybridProtocol) fetchWindow(h, src *Host, win []chainEntry, wire int, clk *simtime.Clock) {
	c := hy.c
	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, wire+msgHeader)
	clk.Advance(c.costs.DiffFetch(h.machine, src.machine, wire))
	c.stats.DiffFetches.Add(int64(len(win)))
	c.stats.DiffBytes.Add(int64(wire))
}

// closePage commits interval s for one page at a barrier (or a forced
// interval close), observing the writers for the classifier and
// dispatching to the sole-writer or concurrent-writer path.
func (hy *hybridProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hy.c
	pm := c.dir.metaLocked(pk.region, pk.page)
	cr := hy.rec(pk)
	cr.observeClose(writers)
	cr.setClass(&c.stats, cr.classify())

	if len(writers) == 1 {
		hy.closeSole(pk, pm, cr, writers[0], s, active, flush)
		return
	}
	hy.closeMulti(pk, pm, cr, writers, s, active, flush)
}

// closeSole commits a close with exactly one writer.
func (hy *hybridProtocol) closeSole(pk pageKey, pm *pageMeta, cr *classRec, w HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hy.c
	h := c.Host(w)
	st := &h.pages[pk.region][pk.page]
	ch := hy.chain(pk)
	home := pm.owner
	prevLatest := pm.latestSeq()

	if st.dirty && st.twin == nil {
		// Elided page: the writer is its own home and no diff exists.
		// Commit conservatively (the page is assumed changed) at the
		// cost of a sequence update. The home cannot have moved while
		// the page was elided-dirty: every re-homing path refuses an
		// elided-dirty home.
		if home != w {
			panic(fmt.Sprintf("dsm: hybrid: elided page %d/%d closed by %d but homed at %d", pk.region, pk.page, w, home))
		}
		st.dirty = false
		st.appliedSeq = s
		c.stats.ElidedDiffs.Add(1)
		pm.baseSeq = s
		hy.advance(ch, s)
		hy.invalidateStale(pk, w, s, active)
		return
	}

	wasCurrent := st.appliedSeq >= prevLatest
	if !wasCurrent {
		// The writer's copy misses interim commits: push its diff to
		// the home as HLRC would, then the writer goes invalid.
		clk := simtime.NewClock(0)
		m := c.takeMask(h, pk, clk)
		flush[w] += clk.Now()
		if m.Empty() {
			return
		}
		clk = simtime.NewClock(0)
		c.pushToHome(h, pk, home, &m, s, clk)
		flush[w] += clk.Now()
		hy.retain(ch, s, w, &m, st.data)
		pm.baseSeq = s
		st.valid = false
		hy.invalidateStale(pk, home, s, active)
		return
	}

	// Current sole writer. Take the diff first: a rewrite of the same
	// values commits nothing and invalidates nobody (the parents'
	// economy — under a shifting schedule another host's still-current
	// copy must survive an unchanged close). Pages proven single-writer
	// skip this work through the elided branch above instead.
	clk := simtime.NewClock(0)
	m := c.takeMask(h, pk, clk)
	flush[w] += clk.Now()
	if m.Empty() {
		return
	}
	wire := m.WireSize()

	// Home flip: free when the writer's diff is dense (windows are
	// worthless for this page) or the window holds only the writer's
	// own diffs (nothing is lost). Otherwise the home stays put and
	// the diff is pushed to it. A home holding the page elided-dirty
	// is never flipped away from — its uncommitted words exist nowhere
	// else.
	homeSt := &c.Host(home).pages[pk.region][pk.page]
	elidedHome := home != w && homeSt.dirty && homeSt.twin == nil
	if home != w && !elidedHome && (ch.onlyWriter(w) || wire >= denseFlipWire) {
		pm.owner = w
		home = w
		hy.keepOnly(ch, w)
		c.stats.HomeMigrations.Add(1)
	}
	if home != w {
		clk := simtime.NewClock(0)
		c.pushToHome(h, pk, home, &m, s, clk)
		flush[w] += clk.Now()
	}
	hy.retain(ch, s, w, &m, st.data)
	st.appliedSeq = s
	pm.baseSeq = s
	hy.invalidateStale(pk, w, s, active)
}

// closeMulti commits a close with concurrent writers: every diff is
// taken first, word-disjointness is asserted while the evidence is
// intact, each diff is pushed to (and retained at) the home, and the
// dominance rule may migrate the home with a paid page transfer.
func (hy *hybridProtocol) closeMulti(pk pageKey, pm *pageMeta, cr *classRec, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hy.c
	ch := hy.chain(pk)
	home := pm.owner
	prevLatest := pm.latestSeq()

	elided := false
	var buf [4]writerMask // more concurrent writers of one page spill to the heap
	made := buf[:0]
	for _, w := range writers {
		h := c.Host(w)
		st := &h.pages[pk.region][pk.page]
		if st.dirty && st.twin == nil {
			// An elided home caught with a concurrent writer: its words
			// are already in its own (the home's) copy; no evidence
			// diff exists.
			st.dirty = false
			c.stats.ElidedDiffs.Add(1)
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
		return
	}
	for i := range made {
		wm := &made[i]
		clk := simtime.NewClock(0)
		c.pushToHome(c.Host(wm.writer), pk, home, &wm.mask, s, clk)
		flush[wm.writer] += clk.Now()
	}
	if elided {
		// The elided writer's words are not in any diff: the window
		// cannot cover this interval.
		if c.Host(home).pages[pk.region][pk.page].appliedSeq < s {
			st := &c.Host(home).pages[pk.region][pk.page]
			st.appliedSeq = s
			st.valid = true
		}
		hy.advance(ch, s)
	} else {
		for i := range made {
			wm := &made[i]
			hy.retain(ch, s, wm.writer, &wm.mask, c.Host(wm.writer).pages[pk.region][pk.page].data)
		}
	}
	pm.baseSeq = s

	sole := HostID(-1)
	if !elided && len(made) == 1 {
		h := c.Host(made[0].writer)
		if h.pages[pk.region][pk.page].appliedSeq >= prevLatest {
			sole = made[0].writer
		}
	}
	if elided {
		sole = home // the elided writer is its own home and is current
	}
	for _, id := range active {
		if id == pm.owner {
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

	// Dominant-writer migration: a falsely-shared page whose last
	// domMigrateRun closes all include one writer re-homes to it, the
	// old home shipping the merged page across the actual link.
	dom := cr.domWriter
	if cr.class == classFalselyShared && cr.domRun >= domMigrateRun &&
		dom != pm.owner && c.Host(dom).active {
		clk := simtime.NewClock(0)
		data, applied := c.copyPageFrom(c.Host(dom), c.Host(pm.owner), pk, "home", clk)
		flush[dom] += clk.Now()
		dst := &c.Host(dom).pages[pk.region][pk.page]
		c.releasePage(dst.data)
		dst.data = data
		dst.appliedSeq = applied
		dst.valid = true
		pm.owner = dom
		hy.keepOnly(ch, dom)
		c.stats.HomeMigrations.Add(1)
		c.stats.HomeMigrationBytes.Add(page.Size)
	}
}

// invalidateStale invalidates every active copy other than keep's that
// misses interval s. keep (the current sole writer or home) advances
// to s instead.
func (hy *hybridProtocol) invalidateStale(pk pageKey, keep HostID, s int32, active []HostID) {
	c := hy.c
	for _, id := range active {
		h := c.Host(id)
		st := &h.pages[pk.region][pk.page]
		if id == keep {
			if st.valid {
				st.appliedSeq = s
			}
			continue
		}
		if st.valid && st.appliedSeq < s {
			st.valid = false
		}
	}
}

// flushIntervalLocked commits h's open interval on a release path. A
// dense diff from a current writer flips the home to the writer (and
// is retained there for nothing); a sparse diff is pushed to the home
// as HLRC would and retained in its window. The caller holds the
// directory write lock.
func (hy *hybridProtocol) flushIntervalLocked(h *Host, clk *simtime.Clock) int {
	c := hy.c
	c.seq++
	s := c.seq
	made := 0
	soleWriters := [1]HostID{h.id}
	for _, pk := range h.takeWritten() {
		pm := c.dir.metaLocked(pk.region, pk.page)
		cr := hy.rec(pk)
		cr.observeClose(soleWriters[:])
		cr.setClass(&c.stats, cr.classify())
		ch := hy.chain(pk)
		prevLatest := pm.latestSeq()
		st := &h.pages[pk.region][pk.page]

		if st.dirty && st.twin == nil {
			// Elided page flushed under a lock: commit conservatively.
			st.dirty = false
			st.appliedSeq = s
			c.stats.ElidedDiffs.Add(1)
			pm.baseSeq = s
			hy.advance(ch, s)
			c.releaseLog = append(c.releaseLog, relEntry{pk: pk, seq: s})
			continue
		}

		wasCurrent := st.appliedSeq >= prevLatest
		m := c.takeMask(h, pk, clk)
		if m.Empty() {
			continue
		}
		wire := m.WireSize()
		homeSt := &c.Host(pm.owner).pages[pk.region][pk.page]
		elidedHome := homeSt.dirty && homeSt.twin == nil
		if wasCurrent && pm.owner != h.id && !elidedHome && (ch.onlyWriter(h.id) || wire >= denseFlipWire) {
			pm.owner = h.id
			hy.keepOnly(ch, h.id)
			c.stats.HomeMigrations.Add(1)
		}
		c.pushToHome(h, pk, pm.owner, &m, s, clk)
		hy.retain(ch, s, h.id, &m, st.data)
		if pm.owner != h.id {
			if wasCurrent {
				st.appliedSeq = s
			} else {
				st.valid = false
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
// a stale clean copy goes invalid; a stale dirty copy inside the
// home's window is patched in place (diffs applied to data and twin,
// as the Tmk upgrade path does), otherwise it is merged over a fresh
// home page exactly as HLRC does.
func (hy *hybridProtocol) upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hy.c
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
	ch := hy.chain(pk)
	if st.appliedSeq >= ch.floor {
		if win, wire := ch.window(st.appliedSeq); len(win) > 0 && wire < page.Size {
			hy.fetchWindow(h, c.Host(meta.owner), win, wire, clk)
			for _, e := range win {
				e.diff.Apply(st.data)
				if st.twin != nil {
					// Committed remote words, not this host's: patch the
					// twin too so the eventual close diff carries only
					// the host's own writes.
					e.diff.Apply(st.twin)
				}
			}
			if st.appliedSeq < latest {
				st.appliedSeq = latest
			}
			return
		}
	}
	c.mergeOverHomePage(h, pk, meta.owner, clk)
}

// runGCLocked prunes stale copies and normalises sequence numbers as
// HLRC's trivial collection does (homes are always current, so no data
// moves and no time is charged), and additionally resets the retained
// windows and the classifier: an adaptation redraws the partition map,
// so the old sharing history no longer describes the pages it tagged.
func (hy *hybridProtocol) runGCLocked(active []HostID) simtime.Seconds {
	c := hy.c
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
						panic(fmt.Sprintf("dsm: hybrid: gc: home %d of page %d/%d holds no copy", pm.owner, r, p))
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
			ch := &hy.chains[ri][p]
			hy.retained -= ch.bytes
			ch.entries = nil
			ch.bytes = 0
			ch.floor = gcSeq
			hy.recs[ri][p].reset(&c.stats)
		}
	}
	c.releaseLog = c.releaseLog[:0]
	return 0
}
