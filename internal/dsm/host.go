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
	twin []byte // pristine copy while dirty in the open interval, unless elided or borrowed
	// appliedSeq is the newest interval sequence whose committed
	// modifications are reflected in data (plus the host's own
	// uncommitted writes while dirty).
	appliedSeq int32
	// lent counts the hosts borrowing this copy as their twin; only a
	// page's home ever lends (see Cluster.borrow).
	lent  int32
	valid bool
	dirty bool
	// borrowed marks a dirty page whose twin is the home's copy.
	borrowed bool
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
	// only: the home-based protocols apply a diff at the page's home at
	// interval close, straight from the writer's page, and the writer
	// retains nothing). Readers fetch from here; a collection, a leave
	// and a join drop them all. diffBytes is their total wire size, the
	// collection trigger's storage count, which pruning a chain's covered
	// prefix deliberately leaves alone (see coalesce.go).
	diffs     map[pageKey]*diffChain
	diffBytes int
	// syncSeq is the newest interval sequence this host has fully
	// honoured (set at barriers and lock acquires).
	syncSeq int32
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
func (c *Cluster) newPage() []byte      { return c.pagePool.Zeroed() }
func (c *Cluster) releasePage(b []byte) { c.pagePool.Release(b) }

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
	if !st.valid {
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
func (h *Host) WriteSpan(r RegionID, off, n int, clk *simtime.Clock) []byte {
	h.checkRange(r, off, n)
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.dirty || !st.valid {
		h.ensureWrite(r, p, clk)
	}
	return st.data[po : po+n]
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
	if st.valid {
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

// ensureRead makes the page readable on h, invoking the protocol's
// read-fault handling if the local copy is missing or invalid.
func (h *Host) ensureRead(r RegionID, p int, clk *simtime.Clock) {
	valid := h.pages[r][p].valid
	if valid {
		return
	}
	h.cluster.stats.ReadFaults.Add(1)
	h.cluster.proto.fault(h, pageKey{r, p}, clk)
}

// ensureWrite makes the page writable on h: readable first (TreadMarks
// fetches on a write fault too), then twinned if this is the first
// write of the open interval. Twinning is protocol-independent — Tmk
// keeps the twin to diff lazily, HLRC to diff eagerly at the flush —
// and so are its count and its simulated cost; only the host-side copy
// is skipped where the home's copy can stand in (see Cluster.borrow).
func (h *Host) ensureWrite(r RegionID, p int, clk *simtime.Clock) {
	h.ensureRead(r, p, clk)
	st := &h.pages[r][p]
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
			h.cluster.stats.WriteFaults.Add(1)
			return
		}
		if !h.cluster.borrow(h, pk, st) {
			st.twin = h.cluster.pagePool.Copy(st.data)
		}
		st.dirty = true
		h.written = append(h.written, pk)
		clk.Advance(h.cluster.costs.Twin(h.machine))
		h.cluster.stats.TwinsCreated.Add(1)
		h.cluster.stats.WriteFaults.Add(1)
	}
}

// takeWritten consumes and returns the open interval's dirty-page list.
// Called by interval-close code with the directory write lock held and
// the host's process parked. The two lists alternate, so the next
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
