package dsm

import (
	"fmt"
	"sort"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// tmkProtocol is the TreadMarks homeless lazy-release-consistency
// protocol, extracted unchanged from the original implementation:
// writers retain their diffs, readers fetch a base copy from the
// page's designated owner and patch it with diffs fetched writer by
// writer, and garbage collection consolidates the accumulated diffs at
// per-page owners. It is the default protocol and is bit-exact versus
// the pre-refactor system (asserted by the golden kernel matrix in
// internal/bench).
type tmkProtocol struct {
	c *Cluster
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

// storageLocked sums diff storage across hosts; the directory write
// lock serialises it against interval closes.
func (t *tmkProtocol) storageLocked() int {
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
	meta := c.dir.meta(r, p)
	target := meta.latestSeq()

	st := &h.pages[r][p]
	needBase := st.data == nil || st.appliedSeq < meta.baseSeq
	applied := st.appliedSeq

	if needBase {
		applied = t.fetchBase(h, pk, meta.owner, clk)
	}

	// Gather missing diffs: own diffs locally (relevant after a base
	// refetch replaced a copy that contained our writes), remote diffs
	// one message per writer. pendingWriters returns ascending host
	// order, the same deterministic order the grouped scan produced.
	var pending []seqDiff
	pending = append(pending, diffWindow(h.localDiffs(pk), applied, target)...)
	for _, w := range pendingWriters(&meta, applied, h.id) {
		pending = append(pending, t.fetchDiffs(h, pk, w, applied, target, clk)...)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	if activeMutation.Load() == mutationDropNewestDiff && len(pending) > 0 {
		// Injected defect: silently skip the newest diff. appliedSeq
		// still advances to target, so the staleness is never repaired —
		// exactly the silent-wrong-result class a differential oracle
		// must catch.
		pending = pending[:len(pending)-1]
	}

	st = &h.pages[r][p]
	for _, sd := range pending {
		sd.diff.Apply(st.data)
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
	c := t.c
	if owner == h.id {
		// We are the designated owner: our copy is the base.
		st := &h.pages[pk.region][pk.page]
		if st.data == nil {
			panic(fmt.Sprintf("dsm: host %d owns page %v but holds no copy", h.id, pk))
		}
		applied := st.appliedSeq
		return applied
	}
	data, applied := c.copyPageFrom(h, c.Host(owner), pk, "owner", clk)

	st := &h.pages[pk.region][pk.page]
	c.releasePage(st.data)
	st.data = data
	st.appliedSeq = applied
	return applied
}

// diffWindow returns the sub-chain of an ascending diff chain with
// sequence in (after, upTo], found by binary search instead of a full
// scan — chains between GCs hold one entry per interval, and the fault
// path asks for a recent suffix.
func diffWindow(chain []seqDiff, after, upTo int32) []seqDiff {
	lo := sort.Search(len(chain), func(i int) bool { return chain[i].seq > after })
	hi := lo + sort.Search(len(chain)-lo, func(i int) bool { return chain[lo+i].seq > upTo })
	return chain[lo:hi]
}

// fetchDiffs retrieves from writer w its diffs for pk with sequence in
// (after, upTo], charging one request to clk.
func (t *tmkProtocol) fetchDiffs(h *Host, pk pageKey, w HostID, after, upTo int32, clk *simtime.Clock) []seqDiff {
	c := t.c
	src := c.Host(w)
	got := diffWindow(src.diffs[pk], after, upTo)
	wire := 0
	for _, sd := range got {
		wire += sd.diff.WireSize()
	}
	if len(got) == 0 {
		return nil
	}
	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, wire+msgHeader)
	clk.Advance(c.costs.DiffFetch(h.machine, src.machine, wire))
	c.stats.DiffFetches.Add(int64(len(got)))
	c.stats.DiffBytes.Add(int64(wire))
	return got
}

// closePage closes the interval s for one page with the given writers.
// Callers hold the directory write lock and all processes are parked.
func (t *tmkProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := t.c
	pm := c.dir.metaLocked(pk.region, pk.page)

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
		st.dirty = false
		st.appliedSeq = s
		pm.owner = w
		pm.baseSeq = s
		// Single-writer pages keep only the latest notice: no diffs
		// exist, so older notices can never be patched in anyway.
		pm.resetNotice(w, s)
	}

	// Invalidate stale copies. A sole writer that produced a notice is
	// current; concurrent writers each lack the others' words and go
	// invalid too (their own diffs are local, so revalidation is a
	// diff exchange away). In the multi path "produced a notice" means
	// a diff was made this close — membership in made.
	noticed := func(id HostID) bool {
		for i := range made {
			if made[i].writer == id {
				return true
			}
		}
		return false
	}
	soleCurrent := HostID(-1)
	if len(writers) == 1 && (!multi || noticed(writers[0])) {
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
	c := t.c
	h.diffs[pk] = append(h.diffs[pk], seqDiff{seq: s, diff: m.Pack(h.pages[pk.region][pk.page].data)})
	h.diffBytes += m.WireSize()
	pm.addNotice(h.id, s)
	if shouldPrune(len(h.diffs[pk])) {
		c.pruneDiffChain(h, pk)
	}
}

// flushIntervalLocked closes h's open interval as a lock release does:
// pages written since the interval opened become diffs with fresh write
// notices, and affected pages go on the release log so later acquirers
// (and the next barrier) honour the writes. Pages flushed this way are
// diff-managed even if they previously had a single writer: without the
// barrier's global conflict detection, full-page ownership transfers
// would be unsound under concurrent readers. Diff-creation time is
// charged to clk. Returns the number of diffs created. The caller holds
// the directory write lock.
func (t *tmkProtocol) flushIntervalLocked(h *Host, clk *simtime.Clock) int {
	c := t.c
	c.seq++
	s := c.seq
	made := 0
	for _, pk := range h.takeWritten() {
		pm := c.dir.metaLocked(pk.region, pk.page)
		prevLatest := pm.latestSeq()
		if pm.mode == ModeSingle {
			pm.baseSeq = prevLatest
			pm.mode = ModeMulti
		}
		m := c.takeMask(h, pk, clk)
		if m.Empty() {
			continue
		}
		st := &h.pages[pk.region][pk.page]
		if st.appliedSeq >= prevLatest {
			st.appliedSeq = s // current: old value plus own writes
		} else {
			st.valid = false // concurrent writers under other locks
		}
		t.keepDiff(h, pk, pm, &m, s)
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
// a stale clean copy is invalidated, a stale dirty copy is upgraded in
// place by fetching and applying the missing diffs (the words are
// disjoint in a race-free program).
func (t *tmkProtocol) upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock) {
	c := t.c
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
	applied := st.appliedSeq

	// Dirty page: patch in place.
	var pending []seqDiff
	for _, w := range pendingWriters(&meta, applied, h.id) {
		pending = append(pending, t.fetchDiffs(h, pk, w, applied, latest, clk)...)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	st = &h.pages[pk.region][pk.page]
	for _, sd := range pending {
		sd.diff.Apply(st.data)
		if st.twin != nil {
			// The patched words are committed remote writes, not this
			// host's modifications: apply them to the twin too, so the
			// diff created when this interval closes contains only the
			// host's own writes. Leaving the twin stale re-broadcast
			// other writers' words as this host's and tripped the
			// word-race check on a race-free program whenever a dirty
			// page was upgraded mid-interval (a latent pre-engine bug,
			// exposed once the engine made the interleaving that hits
			// this path deterministic).
			sd.diff.Apply(st.twin)
		}
	}
	if st.appliedSeq < latest {
		st.appliedSeq = latest
	}
}

// runGCLocked implements the TreadMarks garbage collection: every
// page's outstanding diffs are pulled to its designated owner, all
// twins, diffs and write notices are discarded, and stale copies are
// freed. Afterwards each page is either valid and up to date, or
// invalid with the owner field pointing at a host with a valid copy —
// the property that makes adaptation cheap. The caller holds the
// directory write lock; the returned duration is the barrier-observed
// GC cost (coordination plus the slowest host's diff pulls).
func (t *tmkProtocol) runGCLocked(active []HostID) simtime.Seconds {
	c := t.c
	gcSeq := c.seq
	c.stats.GCs.Add(1)

	pull := make(map[HostID]simtime.Seconds)
	totalPages := 0
	for ri := range c.dir.pages {
		r := RegionID(ri)
		metas := c.dir.pages[ri]
		totalPages += len(metas)
		for p := range metas {
			pm := &metas[p]
			if len(pm.writers) > 0 || pm.mode == ModeMulti {
				t.gcPage(r, p, pm, pull)
			}
			c.settlePage(r, p, pm, gcSeq)
			pm.mode = ModeSingle
		}
	}

	// All consistency information is gone.
	for _, h := range c.hosts {
		h.diffs = make(map[pageKey][]seqDiff)
		h.diffBytes = 0
	}
	c.releaseLog = c.releaseLog[:0]

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
	current := st.valid && applied >= latest
	if current {
		return
	}

	pk := pageKey{r, p}
	var pending []seqDiff
	pending = append(pending, diffWindow(owner.localDiffs(pk), applied, c.seq)...)
	for _, w := range pendingWriters(pm, applied, pm.owner) {
		src := c.Host(w)
		got := diffWindow(src.diffs[pk], applied, latest)
		wire := 0
		for _, sd := range got {
			pending = append(pending, sd)
			wire += sd.diff.WireSize()
		}
		if wire == 0 {
			continue
		}
		c.fabric.Record(owner.machine, src.machine, msgHeader)
		c.fabric.Record(src.machine, owner.machine, wire+msgHeader)
		pull[pm.owner] += c.costs.DiffFetch(owner.machine, src.machine, wire)
		c.stats.DiffFetches.Add(1)
		c.stats.DiffBytes.Add(int64(wire))
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })

	st = &owner.pages[r][p]
	for _, sd := range pending {
		sd.diff.Apply(st.data)
	}
	st.appliedSeq = latest
	st.valid = true
}
