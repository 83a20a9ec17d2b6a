package dsm

import (
	"cmp"
	"fmt"
	"slices"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// tmkProtocol is the TreadMarks homeless lazy-release-consistency
// protocol: writers retain their diffs, readers fetch a base copy from
// the page's designated owner and patch it with diffs fetched writer by
// writer, and garbage collection consolidates the accumulated diffs at
// per-page owners. It is the default protocol, pinned bit for bit by the
// golden kernel matrix in internal/bench.
type tmkProtocol struct {
	c *Cluster
	// scratch is the run-wide buffer gather collects into: the slice
	// missingDiffs returns, and gcPage's, is valid until the next call
	// of either.
	scratch []chainEntry
}

// Kind identifies the protocol.
func (t *tmkProtocol) Kind() ProtocolKind { return Tmk }

// initRegion materialises all pages zero-filled and current at the
// master, which the directory already names as every page's owner.
func (t *tmkProtocol) initRegion(r *Region) {
	m := t.c.Master()
	for p := 0; p < r.NPages; p++ {
		st := &m.pages[r.ID][p]
		st.data = t.c.newPage()
		st.valid = true
	}
}

// leaveStrategy: Tmk supports both handoffs as configured.
func (t *tmkProtocol) leaveStrategy(s LeaveStrategy) LeaveStrategy { return s }

// storage sums diff storage across hosts.
func (t *tmkProtocol) storage() int {
	n := 0
	for _, h := range t.c.hosts {
		n += h.diffBytes
	}
	return n
}

// fault implements the read-fault protocol: fetch a base copy from the
// owner if the local copy is missing or too old for diff patching, then
// fetch and apply the missing diffs writer by writer.
func (t *tmkProtocol) fault(h *Host, pk pageKey, clk *simtime.Clock) {
	if activeMutation.Load() == mutationFaultPanic {
		panic(fmt.Sprintf("dsm: injected fault-panic mutation (host %d, page %d/%d)", h.id, pk.region, pk.page))
	}
	c := t.c
	r, p := pk.region, pk.page
	pm := c.meta(r, p)
	target := pm.latestSeq()

	st := &h.pages[r][p]
	needBase := st.data == nil || st.appliedSeq < pm.baseSeq
	applied := st.appliedSeq

	if needBase {
		applied = t.fetchBase(h, pk, pm.owner, clk)
	}

	pending := t.missingDiffs(h, pk, pm, applied, target, clk)
	if activeMutation.Load() == mutationDropNewestDiff && len(pending) > 0 {
		// Injected defect: silently skip the newest diff. appliedSeq
		// still advances to target, so the staleness is never repaired —
		// exactly the silent-wrong-result class a differential oracle
		// must catch.
		pending = pending[:len(pending)-1]
	}

	for _, e := range pending {
		e.diff.Apply(st.data)
	}
	if st.appliedSeq < target {
		st.appliedSeq = target
	}
	st.valid = true
}

// fetchBase copies the owner's page into h and returns the appliedSeq
// of the copy. The owner's copy may itself be behind on diffs; the
// caller patches the remainder.
func (t *tmkProtocol) fetchBase(h *Host, pk pageKey, owner HostID, clk *simtime.Clock) int32 {
	st := &h.pages[pk.region][pk.page]
	if owner == h.id {
		// We are the designated owner: our copy is the base.
		if st.data == nil {
			panic(fmt.Sprintf("dsm: host %d owns page %v but holds no copy", h.id, pk))
		}
		return st.appliedSeq
	}
	data, applied := t.c.copyPageFrom(h, t.c.Host(owner), pk, "owner", clk)
	t.c.releasePage(st.data)
	st.data, st.appliedSeq = data, applied
	return applied
}

// missingDiffs gathers, in interval order, the diffs that bring a copy
// of pk at appliedSeq after up to upTo: h's own from its chain (there
// are some only after a base refetch replaced a copy that held h's
// writes; a valid copy always contains them), every other writer's in
// one priced message per writer, in ascending host order. The result
// is valid until the next call.
func (t *tmkProtocol) missingDiffs(h *Host, pk pageKey, meta *pageMeta, after, upTo int32, clk *simtime.Clock) []chainEntry {
	return t.gather(h, pk, meta, after, upTo, upTo, func(src *Host, got []chainEntry) {
		clk.Advance(t.c.fetchDiffs(h, src, wireOf(got), len(got)))
	})
}

// gather collects into the scratch buffer the diffs of pk with
// sequence above after that h lacks: its own through ownUpTo, then each
// other pending writer's through upTo, in ascending host order, calling
// fetch once per writer that has some. It then orders them by sequence
// with a stable sort, so tied entries keep that own-then-host order.
// Ties are the concurrent writers of one barrier interval, whose words
// checkWordRaces proved disjoint, so the order they are applied in
// cannot change a byte.
func (t *tmkProtocol) gather(h *Host, pk pageKey, pm *pageMeta, after, ownUpTo, upTo int32, fetch func(src *Host, got []chainEntry)) []chainEntry {
	pending := append(t.scratch[:0], h.diffs[pk].after(after, ownUpTo)...)
	for w := pm.nextWriter(after, h.id, -1); w >= 0; w = pm.nextWriter(after, h.id, w) {
		src := t.c.Host(w)
		if got := src.diffs[pk].after(after, upTo); len(got) > 0 {
			fetch(src, got)
			pending = append(pending, got...)
		}
	}
	slices.SortStableFunc(pending, func(a, b chainEntry) int { return cmp.Compare(a.seq, b.seq) })
	t.scratch = pending
	return pending
}

// closePage closes the interval s for one page with the given writers.
// All processes are parked.
func (t *tmkProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := t.c
	pm := c.meta(pk.region, pk.page)
	prevLatest := pm.latestSeq()

	multi := pm.mode == ModeMulti || len(writers) > 1
	if multi && pm.mode == ModeSingle {
		// Transition: diffs exist only from interval s on; older copies
		// must full-fetch from the owner, whose copy is current as of
		// the last single-writer notice.
		pm.baseSeq = pm.latestSeq()
		pm.mode = ModeMulti
	}

	var buf [4]writerMask // more concurrent writers of one page spill to the heap
	made := buf[:0]
	if multi {
		for _, w := range writers {
			h := c.Host(w)
			clk := simtime.NewClock(0)
			m := c.takeMask(h, pk, clk)
			flush[w] += clk.Now()
			if !m.Empty() {
				t.keepDiff(h, pk, pm, &m, s)
				made = append(made, writerMask{writer: w, mask: m})
			}
		}
		c.checkWordRaces(pk, made)
	} else {
		w := writers[0]
		h := c.Host(w)
		st := &h.pages[pk.region][pk.page]
		c.releasePage(st.twin)
		st.twin = nil
		h.dropOnce(st)
		st.dirty = false
		st.appliedSeq = s
		pm.owner = w
		pm.baseSeq = s
		// Single-writer pages keep only the latest notice: no diffs
		// exist, so older notices can never be patched in anyway.
		pm.resetNotice(w, s)
	}

	// Invalidate stale copies. A sole writer that produced a notice is
	// current if its copy was before the write (the rule commitRelease
	// applies): one behind a commit made under a lock lacks its words.
	// Concurrent writers each lack the others' words and go invalid too
	// (their own diffs are local, so revalidation is a diff exchange
	// away). In the multi path "produced a notice" means a diff was
	// made this close — membership in made.
	noticed := func(id HostID) bool {
		for i := range made {
			if made[i].writer == id {
				return true
			}
		}
		return false
	}
	soleCurrent := HostID(-1)
	if len(writers) == 1 && (!multi || noticed(writers[0]) && c.Host(writers[0]).pages[pk.region][pk.page].appliedSeq >= prevLatest) {
		soleCurrent = writers[0]
	}
	for _, id := range active {
		if id == soleCurrent {
			continue
		}
		h := c.Host(id)
		st := &h.pages[pk.region][pk.page]
		if multi {
			if st.valid && (st.appliedSeq < pm.latestSeq() || noticed(id)) {
				st.valid = false
			}
		} else if st.valid && id != writers[0] {
			st.valid = false
		}
	}
	if soleCurrent >= 0 && multi {
		h := c.Host(soleCurrent)
		h.pages[pk.region][pk.page].appliedSeq = s
	}
}

// keepDiff retains the diff h just took for interval s on its own
// chain — Tmk writers keep their diffs until a collection, so this is
// where the payload is materialised — and posts the write notice.
func (t *tmkProtocol) keepDiff(h *Host, pk pageKey, pm *pageMeta, m *page.Mask, s int32) {
	ch := h.diffs[pk]
	if ch == nil {
		ch = new(diffChain)
		h.diffs[pk] = ch
	}
	wire := m.WireSize()
	ch.append(chainEntry{seq: s, writer: h.id, wire: wire, diff: m.Pack(h.pages[pk.region][pk.page].data)})
	h.diffBytes += wire
	pm.addNotice(h.id, s)
	if shouldPrune(len(ch.entries)) {
		// The covered prefix: no copy of the page is older than the
		// floor, so no fault, upgrade or collection can ask for it.
		ch.dropThrough(t.c.diffFloor(pk), nil) // keepDiff packs with Mask.Pack: nothing to recycle
	}
}

// commitRelease commits interval s for one page h wrote, on a release
// path. Pages released this way are diff-managed even if they
// previously had a single writer: without the barrier's global conflict
// detection, full-page ownership transfers would be unsound under
// concurrent readers. The diff stays on h's chain; h's copy stays valid
// only if it was current before the write.
func (t *tmkProtocol) commitRelease(h *Host, pk pageKey, pm *pageMeta, s int32, clk *simtime.Clock) (page.Mask, bool) {
	prevLatest := pm.latestSeq()
	if pm.mode == ModeSingle {
		pm.baseSeq = prevLatest
		pm.mode = ModeMulti
	}
	m := t.c.takeMask(h, pk, clk)
	if m.Empty() {
		return m, false
	}
	st := &h.pages[pk.region][pk.page]
	if st.appliedSeq >= prevLatest {
		st.appliedSeq = s // current: old value plus own writes
	} else {
		st.valid = false // concurrent writers under other locks
	}
	t.keepDiff(h, pk, pm, &m, s)
	return m, false
}

// runGC implements the TreadMarks garbage collection: every page's
// outstanding diffs are pulled to its designated owner and all retained
// diffs are discarded; the Cluster's sweep (settlePage) then discards
// twins and write notices and frees stale copies. Afterwards each page
// is either valid and up to date, or invalid with the owner field
// pointing at a host with a valid copy — the property that makes
// adaptation cheap. All processes are parked; the returned duration is
// the barrier-observed GC cost (coordination plus the slowest host's
// diff pulls).
func (t *tmkProtocol) runGC(active []HostID) simtime.Seconds {
	c := t.c
	pull := make(map[HostID]simtime.Seconds)
	totalPages := 0
	for ri := range c.dir {
		r := RegionID(ri)
		metas := c.dir[ri]
		totalPages += len(metas)
		for p := range metas {
			pm := &metas[p]
			if len(pm.writers) > 0 || pm.mode == ModeMulti {
				t.gcPage(r, p, pm, pull)
			}
		}
	}

	// All consistency information is gone.
	for _, h := range c.hosts {
		h.dropDiffs()
	}

	// Owner-table broadcast: the master tells everyone where the valid
	// copies live.
	master := c.Master()
	meta := msgHeader + 2*totalPages
	for _, id := range active {
		if id == master.id {
			continue
		}
		h := c.Host(id)
		c.fabric.Record(h.machine, master.machine, msgHeader)
		c.fabric.Record(master.machine, h.machine, meta)
	}

	base := c.costs.Base()
	elapsed := base.GC(totalPages, len(active))
	var maxPull simtime.Seconds
	for _, t := range pull {
		if t > maxPull {
			maxPull = t
		}
	}
	return elapsed + maxPull
}

// gcPage designates the page's owner (its last writer) and brings the
// owner's copy fully current by pulling outstanding diffs. Pull time
// accumulates per owner; pulls to distinct owners proceed in parallel
// on the switched network.
func (t *tmkProtocol) gcPage(r RegionID, p int, pm *pageMeta, pull map[HostID]simtime.Seconds) {
	c := t.c
	if len(pm.writers) > 0 {
		pm.owner = pm.lastWriter
	}
	owner := c.Host(pm.owner)
	latest := pm.latestSeq()

	st := &owner.pages[r][p]
	if st.data == nil {
		panic(fmt.Sprintf("dsm: gc: owner %d of page %d/%d holds no copy", pm.owner, r, p))
	}
	applied := st.appliedSeq
	if st.valid && applied >= latest {
		return
	}

	pending := t.gather(owner, pageKey{r, p}, pm, applied, c.seq, latest, func(src *Host, got []chainEntry) {
		// One fetch per writer here, however many diffs it carries.
		pull[pm.owner] += c.fetchDiffs(owner, src, wireOf(got), 1)
	})
	for _, e := range pending {
		e.diff.Apply(st.data)
	}
	st.appliedSeq = latest
	st.valid = true
}
