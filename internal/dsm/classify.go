package dsm

import (
	"math"

	"nowomp/internal/page"
)

// The per-page policy of the home-based core (home.go), and the
// sharing-pattern classifier behind it.
//
// The classifier watches the events the protocol already sees — read
// faults, first writes, and interval closes — and tags each page with
// the sharing regime the history evidences. The policy then specializes
// the core's mechanics per page: homes migrate to dominant writers,
// diff-vs-whole-page transfer switches on measured diff density, and
// twin/diff work is elided for pages proven single-writer. Policy state
// is heuristic only: it steers *where* data moves and *how* it is
// encoded, never *what* values a reader observes, so a
// misclassification costs traffic, not correctness.

// pagePolicy is the dial on the home-based core: the classifier
// history and the home-retained diff windows of every page, and the
// rules that read them. Hybrid runs the core with a policy, HLRC with
// none: every method is safe on a nil receiver and then does nothing
// and answers "no" — no window, no home move, no elision — so the core
// asks unconditionally and HLRC allocates no per-page policy state.
type pagePolicy struct {
	c *Cluster
	// recs/chains are indexed like the directory ([region][page]).
	recs   [][]classRec
	chains [][]diffChain
	// retained is the total wire size of all retained diffs, the
	// policy's reclaimable storage.
	retained int
}

func (pp *pagePolicy) addRegion(npages int) {
	if pp == nil {
		return
	}
	pp.recs = append(pp.recs, newClassRecs(npages))
	pp.chains = append(pp.chains, make([]diffChain, npages))
}

// leaveStrategy: migrated homes sit at their writers like Tmk owners,
// so the configured handoff is honoured; without migration a leaver's
// pages always re-home round-robin across the remaining hosts.
func (pp *pagePolicy) leaveStrategy(s LeaveStrategy) LeaveStrategy {
	if pp == nil {
		return LeaveDirectHandoff
	}
	return s
}

// storage reports the retained-window bytes.
func (pp *pagePolicy) storage() int {
	if pp == nil {
		return 0
	}
	return pp.retained
}

// observeRead records that the page's home served a read fault by h.
func (pp *pagePolicy) observeRead(pk pageKey, h HostID) {
	if pp == nil {
		return
	}
	cr := &pp.recs[pk.region][pk.page]
	cr.observeRead(h)
	cr.setClass(&pp.c.stats, cr.classify())
}

// observeClose records one interval close of the page with the given
// concurrent writers.
func (pp *pagePolicy) observeClose(pk pageKey, writers []HostID) {
	if pp == nil {
		return
	}
	cr := &pp.recs[pk.region][pk.page]
	cr.observeClose(writers)
	cr.setClass(&pp.c.stats, cr.classify())
}

// elide implements the single-writer elision decision for one
// first-write fault: the page must be classified single-writer with h
// as that writer, h must be its home, and no other host may hold a
// valid copy. Counted; the page then goes dirty with no twin and its
// close commits it without a diff.
func (pp *pagePolicy) elide(h *Host, pk pageKey) bool {
	if pp == nil {
		return false
	}
	cr := &pp.recs[pk.region][pk.page]
	if cr.class != classSingleWriter || cr.writerA != h.id {
		return false
	}
	c := pp.c
	if c.meta(pk.region, pk.page).owner != h.id {
		return false
	}
	for _, o := range c.hosts {
		if o.id != h.id && o.pages[pk.region][pk.page].valid {
			return false
		}
	}
	c.stats.ElidedTwins++
	return true
}

// wantFlip reports whether the page's home should follow w, a current
// sole writer closing with a diff of the given wire size: free when the
// diff is dense (windows are worthless for this page) or the window
// holds only w's own diffs (nothing is lost).
func (pp *pagePolicy) wantFlip(pk pageKey, w HostID, wire int) bool {
	if pp == nil {
		return false
	}
	if wire >= denseFlipWire {
		return true
	}
	for _, e := range pp.chains[pk.region][pk.page].entries {
		if e.writer != w {
			return false
		}
	}
	return true
}

// dominant names the writer a falsely-shared page's home should
// migrate to with a paid transfer: the one present in every one of the
// last domMigrateRun closes.
func (pp *pagePolicy) dominant(pk pageKey) (HostID, bool) {
	if pp == nil {
		return -1, false
	}
	cr := &pp.recs[pk.region][pk.page]
	return cr.domWriter, cr.class == classFalselyShared && cr.domRun >= domMigrateRun
}

// homeMoved records that the page's home moved to w. The window moves
// with it, keeping only w's own diffs (the new home never held the
// others) and raising the floor past the drops. Reached only after
// wantFlip or dominant said yes, so never on the null policy.
func (pp *pagePolicy) homeMoved(pk pageKey, w HostID) {
	pp.c.stats.HomeMigrations++
	ch := &pp.chains[pk.region][pk.page]
	var foreign int32 // the newest interval a writer other than w committed
	for _, e := range ch.entries {
		if e.writer != w {
			foreign = e.seq
		}
	}
	pp.retained -= ch.dropThrough(foreign, &pp.c.diffPool)
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

// retain appends a committed diff of the given wire size to the page's
// window, dropping the oldest intervals when the bounds are exceeded.
// The payload is packed from src, the writer's live page (see
// takeMask), into a diff from the cluster's pool, to which the window
// returns it when it drops the entry.
func (pp *pagePolicy) retain(pk pageKey, seq int32, w HostID, m *page.Mask, wire int, src []byte) {
	if pp == nil {
		return
	}
	ch := &pp.chains[pk.region][pk.page]
	e := chainEntry{seq: seq, writer: w, wire: wire}
	if e.wire < page.Size {
		e.diff = pp.c.diffPool.Pack(m, src) // a page or more is never served: see chainEntry
	}
	ch.append(e)
	pp.retained += e.wire
	for len(ch.entries) > maxChainEntries || ch.bytes > maxChainBytes {
		// Drop the oldest interval whole: the floor must never split
		// the entries of one close. Never evict the interval being
		// committed.
		if ch.entries[0].seq == seq {
			break
		}
		pp.retained -= ch.dropThrough(ch.entries[0].seq, &pp.c.diffPool)
	}
}

// advance commits interval seq without a retained diff: the floor
// rises, and entries the floor passed are dropped.
func (pp *pagePolicy) advance(pk pageKey, seq int32) {
	if pp == nil {
		return
	}
	pp.retained -= pp.chains[pk.region][pk.page].dropThrough(seq, &pp.c.diffPool)
}

// window returns the retained diffs that patch a copy with the given
// appliedSeq current, and their total wire size — or nothing when the
// copy is below the window's floor, nothing newer is retained, or the
// gap is a page or more on the wire (the whole page is then cheaper).
func (pp *pagePolicy) window(pk pageKey, after int32) ([]chainEntry, int) {
	if pp == nil {
		return nil, 0
	}
	ch := &pp.chains[pk.region][pk.page]
	if after < ch.floor {
		return nil, 0
	}
	win := ch.after(after, math.MaxInt32)
	wire := wireOf(win)
	if wire >= page.Size {
		return nil, 0
	}
	return win, wire
}

// reset returns the page to the unclassified state with an empty
// window whose floor is gcSeq (collections and adaptation epochs: after
// a team resize the old history describes a partition layout that no
// longer exists). The window's diffs go back to the pool; its entries
// array stays for the next window.
func (pp *pagePolicy) reset(pk pageKey, gcSeq int32) {
	if pp == nil {
		return
	}
	ch := &pp.chains[pk.region][pk.page]
	pp.retained -= ch.bytes
	for i := range ch.entries {
		pp.c.diffPool.Release(ch.entries[i].diff)
	}
	clear(ch.entries)
	*ch = diffChain{floor: gcSeq, entries: ch.entries[:0]}
	cr := &pp.recs[pk.region][pk.page]
	cr.setClass(&pp.c.stats, classUnknown)
	*cr = unclassified
}

// pageClass is the classifier's tag for one page's sharing pattern.
type pageClass uint8

const (
	// classUnknown: no interval has closed on the page yet.
	classUnknown pageClass = iota
	// classSingleWriter: exactly one host has ever written the page and
	// no other host has ever read it — a private page in shared space.
	classSingleWriter
	// classProducerConsumer: exactly one host has ever written the page
	// and at least one other host reads it.
	classProducerConsumer
	// classMigratory: several hosts write the page, but never in the
	// same interval — lock-passed records whose writer identity rotates.
	classMigratory
	// classFalselyShared: at least one interval closed with two or more
	// concurrent writers — disjoint data cohabiting one page.
	classFalselyShared
)

// classRec is the classifier's per-page history, updated on fault paths
// and at interval closes.
type classRec struct {
	class pageClass

	// writerA is the first writer observed (-1 none); manyWriters is set
	// once a second distinct writer appears.
	writerA     HostID
	manyWriters bool

	// readerA/readerB record the first two distinct hosts whose read
	// faults the home served (-1 none). Together with writerA they
	// answer the only question classification asks of the read history:
	// does a reader other than the sole writer exist?
	readerA, readerB HostID

	// Close-shape history: closes with one writer vs several concurrent
	// writers.
	soleCloses  int
	multiCloses int

	// domWriter/domRun track the writer present in every one of the
	// last domRun closes — the dominance evidence the priced migration
	// rule requires before moving a falsely-shared page's home.
	domWriter HostID
	domRun    int
}

// unclassified is the record of a page with no history.
var unclassified = classRec{writerA: -1, readerA: -1, readerB: -1, domWriter: -1}

func newClassRecs(n int) []classRec {
	recs := make([]classRec, n)
	for i := range recs {
		recs[i] = unclassified
	}
	return recs
}

// hasRemoteReader reports whether any recorded reader differs from the
// page's sole writer.
func (cr *classRec) hasRemoteReader() bool {
	return (cr.readerA >= 0 && cr.readerA != cr.writerA) ||
		(cr.readerB >= 0 && cr.readerB != cr.writerA)
}

// observeRead records that the home served a read fault by h.
func (cr *classRec) observeRead(h HostID) {
	switch {
	case cr.readerA < 0:
		cr.readerA = h
	case cr.readerA != h && cr.readerB < 0:
		cr.readerB = h
	}
}

// observeWrite records a first-write (twin) event by h.
func (cr *classRec) observeWrite(h HostID) {
	if cr.writerA < 0 {
		cr.writerA = h
	} else if cr.writerA != h {
		cr.manyWriters = true
	}
}

// observeClose records one interval close with the given concurrent
// writers (ascending host order for multi-writer closes).
func (cr *classRec) observeClose(writers []HostID) {
	for _, w := range writers {
		cr.observeWrite(w)
	}
	if len(writers) == 1 {
		cr.soleCloses++
	} else {
		cr.multiCloses++
	}
	// Dominance: extend the run if the previous dominant writer wrote
	// again this close, otherwise restart it at the lowest writer id
	// (a deterministic choice independent of close gather order).
	dom := cr.domWriter
	extend := false
	low := writers[0]
	for _, w := range writers {
		if w == dom {
			extend = true
		}
		if w < low {
			low = w
		}
	}
	if extend {
		cr.domRun++
	} else {
		cr.domWriter = low
		cr.domRun = 1
	}
}

// classify derives the class the current history evidences.
func (cr *classRec) classify() pageClass {
	switch {
	case cr.soleCloses == 0 && cr.multiCloses == 0:
		return classUnknown
	case cr.multiCloses > 0:
		return classFalselyShared
	case cr.manyWriters:
		return classMigratory
	case cr.hasRemoteReader():
		return classProducerConsumer
	default:
		return classSingleWriter
	}
}

// censusCounter returns the Stats census counter for a class, or nil
// for classUnknown (unclassified pages are not counted).
func censusCounter(s *Stats, pc pageClass) *int64 {
	switch pc {
	case classSingleWriter:
		return &s.PagesSingleWriter
	case classProducerConsumer:
		return &s.PagesProducerConsumer
	case classMigratory:
		return &s.PagesMigratory
	case classFalselyShared:
		return &s.PagesFalselyShared
	}
	return nil
}

// setClass moves the page to the class its history now evidences,
// keeping the per-class census counters balanced.
func (cr *classRec) setClass(s *Stats, pc pageClass) {
	if pc == cr.class {
		return
	}
	if c := censusCounter(s, cr.class); c != nil {
		*c--
	}
	if c := censusCounter(s, pc); c != nil {
		*c++
	}
	cr.class = pc
}
