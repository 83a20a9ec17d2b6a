package dsm

import (
	"fmt"
	"slices"
	"sort"

	"nowomp/internal/engine"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// lockState is one Tmk lock. Lock ids are managed by host 0, matching
// TreadMarks' static lock-manager assignment.
//
// Mutual exclusion between simulated processes is enforced by the
// discrete-event engine: a requester parks and is granted the lock
// only when it is free and the request has the earliest (virtual
// request time, host id) key among the registered waiters. Because the
// engine always wakes the runnable proc with the lowest virtual time,
// a grant at instant T can never be pre-empted by a later-arriving
// request from before T, and grant order is independent of the Go
// scheduler.
type lockState struct {
	held bool
	// holder is the host granted the lock, meaningful while held: only
	// it may release.
	holder HostID
	// waiters is the queue of acquire requests in grant order: sorted by
	// (virtual request time, host id, ticket), a strict total order, so
	// the next grant always goes to waiters[0].
	waiters []*lockRequest
	// spare holds granted requests for reuse, so a contended acquire in a
	// hot loop allocates neither a request nor its wake condition.
	spare       []*lockRequest
	nextTicket  uint64
	lastRelease simtime.Seconds
	lastHolder  HostID
	everHeld    bool
	// wl lists the procs parked in acquire; release notifies it so the
	// engine re-examines exactly the procs contending for this lock.
	wl engine.WaitList
	// reason is the park description, precomputed so contended acquires
	// in a hot loop do not format a string per claim.
	reason string
}

// lockRequest is one queued acquire request. wake is its park
// condition, bound to the request once when it is made: the request is
// granted when the lock is free and it heads the queue.
type lockRequest struct {
	at     simtime.Seconds
	host   HostID
	ticket uint64
	wake   engine.WakeFunc
}

// before reports whether r is granted ahead of o.
func (r *lockRequest) before(o *lockRequest) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.host != o.host {
		return r.host < o.host
	}
	return r.ticket < o.ticket
}

func newLockState(id int) *lockState {
	return &lockState{
		lastHolder: -1,
		reason:     fmt.Sprintf("lock %d", id),
	}
}

// request returns a request of host at instant at with the next
// ticket, reusing a spare one when there is one.
func (lk *lockState) request(at simtime.Seconds, host HostID) *lockRequest {
	var r *lockRequest
	if n := len(lk.spare); n > 0 {
		r = lk.spare[n-1]
		lk.spare = lk.spare[:n-1]
	} else {
		r = new(lockRequest)
		r.wake = func() (simtime.Seconds, bool) {
			if lk.held || lk.waiters[0] != r {
				return 0, false
			}
			return r.at, true
		}
	}
	r.at, r.host, r.ticket = at, host, lk.nextTicket
	lk.nextTicket++
	return r
}

// acquire blocks until the calling proc holds the lock. Grants follow
// (virtual time, host id) order among registered waiters — host id,
// not arrival order, breaks virtual-time ties, so that symmetric
// processes requesting at the identical instant (a uniform loop's
// first dynamic claim, say) are granted in a reproducible order no
// matter how the Go scheduler interleaves them. Outside any
// engine-driven construct (sequential sections, tests driving the
// cluster directly) the lock is granted immediately when free; a
// held lock there is a self-deadlock and panics.
func (lk *lockState) acquire(c *Cluster, id int, clk *simtime.Clock, host HostID) {
	p := c.runningProc()
	if p == nil {
		if lk.held {
			panic(fmt.Sprintf("dsm: lock %d acquired while held, outside any engine-driven construct (self-deadlock)", id))
		}
		lk.held, lk.holder = true, host
		return
	}
	r := lk.request(clk.Now(), host)
	k := sort.Search(len(lk.waiters), func(i int) bool { return r.before(lk.waiters[i]) })
	lk.waiters = slices.Insert(lk.waiters, k, r)
	p.ParkOn(&lk.wl, lk.reason, r.wake)
	// The election revalidates the wake before it resumes a proc, so
	// the head is still this request.
	lk.waiters = slices.Delete(lk.waiters, 0, 1)
	lk.spare = append(lk.spare, r)
	lk.held, lk.holder = true, host
}

// checkRelease panics unless host holds the lock: a release by any
// other host would break mutual exclusion for the holder, and a
// release of a free lock would price the next grant as forwarded from
// a host that never held it.
func (lk *lockState) checkRelease(id int, host HostID) {
	if !lk.held {
		panic(fmt.Sprintf("dsm: host %d released lock %d, which no host holds", host, id))
	}
	if lk.holder != host {
		panic(fmt.Sprintf("dsm: host %d released lock %d, which host %d holds", host, id, lk.holder))
	}
}

// release frees the lock and notifies the parked waiters; the engine
// re-elects among them at its next dispatch.
func (lk *lockState) release(holder HostID, at simtime.Seconds) {
	lk.held = false
	lk.lastRelease = at
	lk.lastHolder = holder
	lk.everHeld = true
	lk.wl.Notify()
}

type lockTable struct {
	locks map[int]*lockState
}

func newLockTable() *lockTable { return &lockTable{locks: make(map[int]*lockState)} }

func (t *lockTable) get(id int) *lockState {
	lk := t.locks[id]
	if lk == nil {
		lk = newLockState(id)
		t.locks[id] = lk
	}
	return lk
}

// AcquireLock acquires lock id for host h, blocking until the current
// holder releases. The acquirer's clock advances past the releaser's
// release instant plus the measured acquire cost (178 us uncontended at
// the manager, up to 272 us when the request is forwarded to a distant
// holder). Acquire-side consistency then invalidates or upgrades local
// copies made stale by lock-release intervals it has not yet honoured.
func (c *Cluster) AcquireLock(id int, h *Host, clk *simtime.Clock) {
	lk := c.locks.get(id)
	lk.acquire(c, id, clk, h.id) // released by ReleaseLock

	clk.AdvanceTo(lk.lastRelease)
	manager := c.Master()
	forwarded := lk.everHeld && lk.lastHolder != manager.id && lk.lastHolder != h.id
	holderMachine := manager.machine
	if forwarded {
		holderMachine = c.Host(lk.lastHolder).machine
	}
	clk.Advance(c.costs.Lock(h.machine, manager.machine, holderMachine, forwarded))
	c.stats.LockAcquires++

	// Request to the manager; grant from manager or forwarded holder.
	c.fabric.Record(h.machine, manager.machine, msgHeader)
	granter := manager
	if lk.everHeld && lk.lastHolder != manager.id {
		holder := c.Host(lk.lastHolder)
		c.fabric.Record(manager.machine, holder.machine, msgHeader)
		granter = holder
	}
	c.fabric.Record(granter.machine, h.machine, msgHeader)

	c.AcquireInterval(h, clk)
}

// AcquireInterval performs acquire-side consistency for h, as a lock
// acquire does and as the task runtime does without a lock (on the thief
// after a steal, on a waiting parent when a remotely executed child
// completes): every page touched by a release interval the host has not
// yet synchronised with is invalidated, or — if the host has it dirty in
// its own open interval — upgraded in place. Upgrades charge their diff
// fetches to clk; pages merely invalidated are repriced lazily at the
// next fault.
func (c *Cluster) AcquireInterval(h *Host, clk *simtime.Clock) {
	if h.syncSeq < c.releaseFloor {
		panic(fmt.Sprintf("dsm: acquire by host %d synchronised through interval %d from a release log pruned through %d",
			h.id, h.syncSeq, c.releaseFloor))
	}
	// The log is ascending by sequence: the unsynchronised entries are a
	// suffix, found by binary search instead of rescanning the whole log
	// on every acquire. Nothing below appends to the log or clears it,
	// and a page listed twice is a no-op the second time (its copy is
	// then invalid or current).
	log := c.releaseLog
	lo := sort.Search(len(log), func(i int) bool { return log[i].seq > h.syncSeq })
	for _, e := range log[lo:] {
		c.upgradeOrInvalidate(h, e.pk, clk)
	}
	h.syncSeq = c.seq
}

// upgradeOrInvalidate performs acquire-side consistency for one page: a
// stale clean copy goes invalid (the next fault brings it current); a
// stale dirty copy is brought current in place, without losing the
// host's own writes, by applying the committed diffs it lacks (the words
// are disjoint in a race-free program), which the protocol supplies.
func (c *Cluster) upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock) {
	pm := c.meta(pk.region, pk.page)
	latest := pm.latestSeq()
	st := &h.pages[pk.region][pk.page]
	if !st.valid || st.appliedSeq >= latest {
		return
	}
	if !st.dirty {
		st.valid = false
		return
	}
	for _, e := range c.proto.missingDiffs(h, pk, pm, st.appliedSeq, latest, clk) {
		e.diff.Apply(st.data)
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
			e.diff.Apply(st.twin)
		} else if st.once != 0 && e.diff != nil {
			// A write-once page has no twin to patch: the patched words
			// leave its changed units instead. A unit of them stored
			// later marks its word again if it changes the patched bits
			// — exactly what the scan of a patched twin would find.
			h.once[st.once-1].changed.ClearWords(&e.diff.Mask)
		}
	}
	if st.appliedSeq < latest {
		st.appliedSeq = latest
	}
}

// ReleaseLock closes the host's open interval under the coherence
// protocol (its writes under the lock become committed diffs with
// fresh write notices) and releases lock id. Only the holder may
// release: a release of a free lock, or by another host, panics naming
// the lock, the releaser and the holder.
func (c *Cluster) ReleaseLock(id int, h *Host, clk *simtime.Clock) {
	lk := c.locks.get(id)
	lk.checkRelease(id, h.id)
	c.flushInterval(h, clk)

	clk.Advance(c.costs.MsgOverhead(h.machine))
	lk.release(h.id, clk.Now())
}

// flushInterval closes h's open interval on a release path (lock
// release, task handoff): the sequence advances, each page h wrote is
// committed under the coherence protocol, its costs charged to clk, and
// every page the commit changed goes on the release log, so later
// acquirers (and the next barrier) honour the writes, and is checked
// against peers holding it dirty. A page rewritten with the values it
// held commits nothing and is not logged. Returns the number of diffs
// created.
func (c *Cluster) flushInterval(h *Host, clk *simtime.Clock) int {
	c.seq++
	s := c.seq
	made := 0
	for _, pk := range h.takeWritten() {
		m, elided := c.proto.commitRelease(h, pk, c.meta(pk.region, pk.page), s, clk)
		if m.Empty() && !elided {
			continue
		}
		c.releaseLog = append(c.releaseLog, relEntry{pk: pk, seq: s})
		if elided {
			continue // no diff: nothing made, no evidence to check
		}
		made++
		c.checkDirtyPeerRaces(h.id, pk, &m)
	}
	if made > 0 && shouldPrune(len(c.releaseLog)) {
		c.pruneReleaseLog()
	}
	return made
}

// checkDirtyPeerRaces extends the sub-word race check to flush-path
// interval closes (lock releases and task handoffs): a peer host that
// currently holds the same page dirty wrote it concurrently with the
// interval just closed — no synchronisation orders the two — so any
// common modified word is a lost update in the making.
func (c *Cluster) checkDirtyPeerRaces(writer HostID, pk pageKey, m *page.Mask) {
	for _, h2 := range c.hosts {
		if h2.id == writer || !h2.active {
			continue
		}
		st2 := &h2.pages[pk.region][pk.page]
		if st2.borrowed {
			// The close that produced m recalled every borrow before it
			// committed; a peer still borrowing would be scanned against
			// a home copy that already holds m's words.
			panic(fmt.Sprintf("dsm: host %d still borrows page %d/%d after host %d committed it", h2.id, pk.region, pk.page, writer))
		}
		m2, ok := h2.ownMask(st2)
		if !ok {
			continue
		}
		if w, ok := m.FirstOverlap(&m2); ok {
			panic(c.wordRaceMessage(writer, h2.id, pk, w, "without synchronisation"))
		}
	}
}
