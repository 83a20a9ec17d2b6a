package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// pageKey names one shared page.
type pageKey struct {
	region RegionID
	page   int
}

// pageState is one host's view of one shared page. It is 64 bytes, one
// cache line (the flags sit beside appliedSeq to keep it so).
type pageState struct {
	data []byte // nil when the host holds no copy
	twin []byte // pristine copy while dirty in the open interval, unless elided, borrowed or write-once
	// appliedSeq is the newest interval sequence whose committed
	// modifications are reflected in data (plus the host's own
	// uncommitted writes while dirty).
	appliedSeq int32
	// lent counts the hosts borrowing this copy as their twin; only a
	// page's home ever lends (see Cluster.borrow).
	lent int32
	// once, when non-zero, marks a dirty page opened by WriteSpanOnce:
	// Host.once[once-1] holds its claims and changed units, which stand
	// in for a twin.
	once  int32
	valid bool
	dirty bool
	// borrowed marks a dirty page whose twin is the home's copy.
	borrowed bool
	// pending marks a home's copy that lacks the words of the diffs it
	// took last, which Cluster.pend names; see Cluster.settle.
	pending bool
}

// Host is one logical process address space participating in the DSM.
// Hosts map 1:1 onto machines except while a migrated process shares
// its target's machine after an urgent leave.
//
// Host state is engine-serialised: within one cluster exactly one
// process runs at a time (see internal/engine), and every cross-host
// operation — fetches, interval closes, migrations — executes on the
// running process's goroutine. Distinct clusters never share hosts,
// so the struct needs no locking; the race-detector CI job guards the
// assumption.
type Host struct {
	id      HostID
	cluster *Cluster
	machine simnet.MachineID
	active  bool

	pages [][]pageState // [region][page]
	// written lists the pages dirtied in the open interval, in first-
	// write order; interval close consumes it. writtenSpare is the
	// previous interval's list, kept for its capacity (see
	// takeWritten).
	written      []pageKey
	writtenSpare []pageKey
	// diffs holds the diffs this host created, a chain per page (Tmk
	// only: the home-based protocols commit a diff at the page's home at
	// interval close, whose copy takes the words from the writer's page
	// when it settles, and the writer retains nothing). Readers fetch
	// from here; a collection, a leave and a join drop them all.
	// diffBytes is their total wire size, the collection trigger's
	// storage count, which pruning a chain's covered prefix deliberately
	// leaves alone (see coalesce.go).
	diffs     map[pageKey]*diffChain
	diffBytes int
	// syncSeq is the newest interval sequence this host has fully
	// honoured (set at barriers and lock acquires).
	syncSeq int32
	// once holds the records of the pages WriteSpanOnce opened, indexed
	// by pageState.once-1. onceNext is the next free record and
	// onceOpen counts the records still in use; every page of an
	// interval closes in the same close, so the count returns to zero
	// there and the records are reused by the next interval.
	once     []*onceRec
	onceNext int
	onceOpen int
	// discard receives the change reports of write-once spans on pages
	// that need none: twinned, or elided (see WriteSpanOnce).
	discard page.Units
}

// onceRec is the write state of a page opened by WriteSpanOnce: the
// 4-byte units claimed in the open interval, and those the writer
// reported changed, whose words stand in for the close-time twin scan.
type onceRec struct {
	claimed page.Units
	changed page.Units
}

// openOnce starts a page's write-once state on a cleared record and
// returns its pageState.once value.
func (h *Host) openOnce() int32 {
	if h.onceNext == len(h.once) {
		h.once = append(h.once, new(onceRec))
	}
	rec := h.once[h.onceNext]
	*rec = onceRec{}
	h.onceNext++
	h.onceOpen++
	return int32(h.onceNext)
}

// dropOnce ends st's write-once state, if it has one.
func (h *Host) dropOnce(st *pageState) {
	if st.once == 0 {
		return
	}
	st.once = 0
	h.onceOpen--
	if h.onceOpen == 0 {
		h.onceNext = 0
	}
}

// ownMask returns the words h changed on a dirty page in the open
// interval, and whether there is evidence of them: a twin to scan, or
// the changed units a write-once page carries. A clean or elided page
// has neither, and a borrowed one is only ever scanned by takeMask.
func (h *Host) ownMask(st *pageState) (page.Mask, bool) {
	switch {
	case st.twin != nil:
		return page.Scan(st.twin, st.data), true
	case st.once != 0:
		return h.once[st.once-1].changed.Words(), true
	}
	return page.Mask{}, false
}

func newHost(c *Cluster, id HostID, m simnet.MachineID) *Host {
	return &Host{id: id, cluster: c, machine: m, diffs: make(map[pageKey]*diffChain)}
}

// dropDiffs discards every diff the host retains.
func (h *Host) dropDiffs() {
	h.diffs = make(map[pageKey]*diffChain)
	h.diffBytes = 0
}

// ID returns the host id.
func (h *Host) ID() HostID { return h.id }

// Machine returns the machine this host currently runs on.
func (h *Host) Machine() simnet.MachineID { return h.machine }

// Active reports whether the host participates in the computation.
func (h *Host) Active() bool { return h.active }

func (h *Host) addRegion(npages int) {
	h.pages = append(h.pages, make([]pageState, npages))
}

// newPage and releasePage recycle page buffers through the cluster's
// single-owner freelist; all callers run serialised by the engine.
// Every releasePage call swaps a replacement (another buffer, or nil)
// into the field that held the buffer, so a released buffer has no
// holder left in the cluster.
func (c *Cluster) newPage() []byte      { return c.pagePool.Zeroed() }
func (c *Cluster) releasePage(b []byte) { c.pagePool.Release(b) }

// Recycle hands every page and twin buffer the cluster's hosts hold
// back to its freelist, for the next cluster that draws from it. Each
// pageState owns its data and its twin (a borrowed twin is nil: the
// buffer is the home's data), so each buffer goes back exactly once.
// The cluster holds no shared memory afterwards and must not be used
// again: only the caller that built it may recycle it, once nothing
// reads it any more.
func (c *Cluster) Recycle() {
	for _, h := range c.hosts {
		for _, reg := range h.pages {
			for i := range reg {
				c.releasePage(reg[i].data)
				c.releasePage(reg[i].twin)
				reg[i] = pageState{}
			}
		}
	}
}

func pageCount(bytes int) int { return page.Count(bytes) }

// MsgHeader is the protocol message header size charged for requests
// and responses, exported so the layers above (fork broadcasts, task
// steal/completion messages) price their messages with the same
// constant as the DSM itself.
const MsgHeader = 32

// message header size charged for protocol requests and responses.
const msgHeader = MsgHeader

// ResidentBytes returns the bytes of shared pages this host currently
// holds a copy of: the dominant component of its migration image.
func (h *Host) ResidentBytes() int {
	n := 0
	for _, reg := range h.pages {
		for i := range reg {
			if reg[i].data != nil {
				n += page.Size
			}
		}
	}
	return n
}

// ReadSpan makes the page at off readable and returns the longest
// in-page byte span starting at off, clamped to n bytes: the
// zero-copy read path behind the shmem accessors, which decode
// elements straight out of page memory instead of staging through an
// intermediate buffer. The span aliases the host's page store and is
// valid only until the next operation on the host; callers must not
// retain it. n must be positive and off+n in range.
func (h *Host) ReadSpan(r RegionID, off, n int, clk *simtime.Clock) []byte {
	h.checkRange(r, off, n)
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.valid || st.pending {
		h.ensureRead(r, p, clk)
	}
	return st.data[po : po+n]
}

// WriteSpan makes the page at off writable (faulted in and twinned)
// and returns the longest in-page byte span starting at off, clamped
// to n bytes, for the caller to overwrite in place: the zero-copy
// write path behind the shmem accessors. The span holds the page's
// current contents (ensureWrite faults it in first), so a partial
// overwrite is safe. Same aliasing rules as ReadSpan.
//
// A page WriteSpanOnce opened in the open interval panics here: its
// diff is the writer's report, and a write through this span would go
// unreported.
func (h *Host) WriteSpan(r RegionID, off, n int, clk *simtime.Clock) []byte {
	h.checkRange(r, off, n)
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.dirty || !st.valid || st.once != 0 { // a pending home copy is clean: it settles in ensureWrite
		h.ensureWrite(r, p, clk, false)
	}
	return st.data[po : po+n]
}

// WriteSpanOnce is WriteSpan for a writer that stores each 4-byte unit
// of the span at most once in the open interval and compares every
// element it stores with the bits it replaces: it reports, through the
// returned Changes, the elements whose bits it changed. A page first
// opened this way carries those reports as its diff mask instead of a
// twin. The simulated first write is WriteSpan's — the same elision
// decision, twin cost and counts — but no pre-image is copied and none
// is borrowed, and the interval close folds the changed units into the
// mask with no scan.
//
// That mask equals the scan a twin would give: a unit written once
// differs from the pre-image exactly when its new bits differ from the
// bits it replaced, an unwritten unit is unchanged, and an acquire
// that patches the page mid-interval clears the patched words' bits
// (see upgradeOrInvalidate), just as patching the twin removes them
// from the scan. So each unit of a page may be claimed once per
// interval: a second claim panics, naming the page, and so does a
// WriteSpan on a page WriteSpanOnce opened in the same interval.
//
// A page WriteSpan opened first keeps its twin, and an elided page
// needs no diff; in both the reports are discarded. elem is the
// element size the reports count in, 4 or 8, and off and n must be
// multiples of it. Same aliasing rules as ReadSpan; the Changes stays
// valid until the interval closes.
func (h *Host) WriteSpanOnce(r RegionID, off, n, elem int, clk *simtime.Clock) ([]byte, Changes) {
	h.checkRange(r, off, n)
	if (elem != 4 && elem != 8) || off%elem != 0 || n%elem != 0 {
		panic(fmt.Sprintf("dsm: host %d: write-once span [%d,%d) of %d-byte elements", h.id, off, off+n, elem))
	}
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.dirty || !st.valid {
		h.ensureWrite(r, p, clk, true)
	}
	ch := Changes{units: &h.discard, unit: po / page.UnitBytes, elem: elem, n: n / elem}
	if st.once != 0 {
		rec := h.once[st.once-1]
		if u, ok := rec.claimed.Claim(po/page.UnitBytes, (po+n)/page.UnitBytes); !ok {
			panic(fmt.Sprintf("dsm: host %d claimed byte offset %d of region %q (page %d) twice in one interval; a write-once span writes each %d-byte unit at most once per interval",
				h.id, p*page.Size+u*page.UnitBytes, h.cluster.regions[r].Name, p, page.UnitBytes))
		}
		ch.units = &rec.changed
	}
	return st.data[po : po+n], ch
}

// Changes is the report side of a write-once span (see
// WriteSpanOnce): the writer marks which of the span's elements it
// changed, and the marks land in the page's changed units, whose words
// are the diff mask the page carries.
type Changes struct {
	units *page.Units
	unit  int // the span's first unit
	elem  int // element size, 4 or 8
	n     int // the span's length in elements
}

// Bits returns the bitmap a kernel reports a 4-byte-element span's
// changes into in place, and the bit of the span's first element: bit
// at+k stands for element k. The kernel may only set bits, and only
// those of elements it stores whose bits it changed.
func (c Changes) Bits() (bits []uint64, at int) {
	if c.elem != page.UnitBytes {
		panic(fmt.Sprintf("dsm: in-place change report for %d-byte elements; want %d", c.elem, page.UnitBytes))
	}
	return c.units[:], c.unit
}

// Set records that element k of the span changed.
func (c Changes) Set(k int) {
	if k < 0 || k >= c.n {
		panic(fmt.Sprintf("dsm: change report for element %d of a %d-element span", k, c.n))
	}
	if c.elem == page.UnitBytes {
		c.units.Set(c.unit + k)
	} else {
		c.units.Set(c.unit + 2*k)
		c.units.Set(c.unit + 2*k + 1)
	}
}

// PageView is a fault-aware view of one region's page table on one
// host, the cheap repeated-random-access path behind the typed shmem
// readers: it hoists the region lookup and bounds checks out of a
// kernel's inner loop and leaves a per-access cost of one validity
// test. The page-state slice it indexes is allocated once per region
// and never reallocated, so a view stays usable for the region's
// lifetime; the usual aliasing rule applies to the returned page bytes.
type PageView struct {
	h   *Host
	r   RegionID
	st  []pageState
	clk *simtime.Clock
}

// PageView returns a fault-aware page-table view of region r for this
// host, charging fault costs to clk.
func (h *Host) PageView(r RegionID, clk *simtime.Clock) PageView {
	if int(r) < 0 || int(r) >= len(h.pages) {
		panic(fmt.Sprintf("dsm: host %d: unknown region %d", h.id, r))
	}
	return PageView{h: h, r: r, st: h.pages[r], clk: clk}
}

// ReadPage returns page p's bytes for reading, faulting it in if the
// local copy is missing or invalid. The valid-page path is small
// enough to inline into callers' loops; the fault path is outlined.
func (v *PageView) ReadPage(p int) []byte {
	st := &v.st[p]
	if st.valid && !st.pending {
		return st.data
	}
	return v.readPageSlow(p)
}

//go:noinline
func (v *PageView) readPageSlow(p int) []byte {
	v.h.ensureRead(v.r, p, v.clk)
	return v.st[p].data
}

func (h *Host) checkRange(r RegionID, off, n int) {
	if int(r) < 0 || int(r) >= len(h.cluster.regions) {
		panic(fmt.Sprintf("dsm: host %d: unknown region %d", h.id, r))
	}
	if off < 0 || n < 0 || off+n > h.cluster.regions[r].Bytes {
		panic(fmt.Sprintf("dsm: host %d: access [%d,%d) outside region %q of %d bytes",
			h.id, off, off+n, h.cluster.regions[r].Name, h.cluster.regions[r].Bytes))
	}
}

// ensureRead makes the page readable on h: a home's copy that lacks
// pushed words is settled, and a copy that is missing or invalid goes
// through the protocol's read-fault handling.
func (h *Host) ensureRead(r RegionID, p int, clk *simtime.Clock) {
	st := &h.pages[r][p]
	if st.pending {
		h.cluster.settle(h, pageKey{r, p})
	}
	if st.valid {
		return
	}
	h.cluster.stats.ReadFaults++
	h.cluster.proto.fault(h, pageKey{r, p}, clk)
}

// ensureWrite makes the page writable on h: readable first (TreadMarks
// fetches on a write fault too), then twinned if this is the first
// write of the open interval. Twinning is protocol-independent — Tmk
// keeps the twin to diff lazily, HLRC to diff eagerly at the flush —
// and so are its count and its simulated cost; only the host-side copy
// is skipped where the home's copy can stand in (see Cluster.borrow),
// or, for a write-once first write (once), where the writer's reports
// stand in (see WriteSpanOnce).
func (h *Host) ensureWrite(r RegionID, p int, clk *simtime.Clock, once bool) {
	st := &h.pages[r][p]
	if st.once != 0 {
		panic(fmt.Sprintf("dsm: host %d: WriteSpan on page %d of region %q, which a write-once span opened in this interval",
			h.id, p, h.cluster.regions[r].Name))
	}
	h.ensureRead(r, p, clk)
	if !st.dirty {
		pk := pageKey{r, p}
		if st.lent > 0 {
			// The home's own first write: its copy stops being anyone's
			// pre-image.
			h.cluster.recall(h, pk)
		}
		if h.cluster.policy.elide(h, pk) {
			// Single-writer elision (hybrid's policy only): the page
			// goes dirty with no twin — the protocol commits it without
			// a diff — and the twin-copy cost vanishes.
			st.dirty = true
			h.written = append(h.written, pk)
			h.cluster.stats.WriteFaults++
			return
		}
		if once {
			st.once = h.openOnce()
		} else {
			// A twin is a pre-image: the home's copy, which this write may
			// borrow, must hold every committed word, and a writer whose
			// pushed words the home still lacks may change one of them and
			// restore it, which its diff would never carry.
			h.cluster.settleHome(pk)
			if !h.cluster.borrow(h, pk, st) {
				st.twin = h.cluster.pagePool.Copy(st.data)
			}
		}
		st.dirty = true
		h.written = append(h.written, pk)
		clk.Advance(h.cluster.costs.Twin(h.machine))
		h.cluster.stats.TwinsCreated++
		h.cluster.stats.WriteFaults++
	}
}

// takeWritten consumes and returns the open interval's dirty-page list.
// Called by interval-close code with the host's process parked. The two lists alternate, so the next
// interval's write faults append into capacity that is already there;
// the returned list is the caller's until the host's next close.
func (h *Host) takeWritten() []pageKey {
	w := h.written
	h.written, h.writtenSpare = h.writtenSpare[:0], w
	return w
}

// Valid reports whether the host currently holds a valid copy of the
// page (test and measurement helper).
func (h *Host) Valid(r RegionID, p int) bool {
	return h.pages[r][p].valid
}

// HasCopy reports whether the host holds any copy, valid or stale.
func (h *Host) HasCopy(r RegionID, p int) bool {
	return h.pages[r][p].data != nil
}
