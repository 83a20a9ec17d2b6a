// Package dsm implements the TreadMarks-like software distributed
// shared memory that the adaptive OpenMP runtime of Scherer et al.
// (PPoPP 1999) is built on: 4 KB pages kept consistent with lazy
// release consistency, twins and word-granularity diffs, dynamic
// single-/multiple-writer page modes, barrier and lock synchronisation,
// and the garbage-collection pass (section 4.1 of the paper) that the
// adaptive extension reuses to make node joins and leaves cheap.
//
// Shared-memory access detection is the one place this implementation
// deliberately departs from TreadMarks: instead of mprotect/SIGSEGV
// page faults (which conflict with the Go runtime), accessors call
// EnsureRead/EnsureWrite explicitly at page granularity. The protocol
// sees the identical event stream; fault costs are charged from the
// paper's measured constants.
//
// Terminology: a Host is one logical process address space (the paper's
// "process"); a machine is a physical workstation on the simulated
// network. Hosts normally map 1:1 onto machines, but after an urgent
// leave a migrated host shares its target's machine until the next
// adaptation point.
package dsm

import (
	"fmt"

	"nowomp/internal/engine"
	"nowomp/internal/machine"
	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// HostID identifies a logical process address space. Host ids are
// stable for the lifetime of the run; the OpenMP team maps transient
// process ids (0..t-1) onto hosts.
type HostID int

// RegionID identifies a shared-memory allocation.
type RegionID int

// Mode is the sharing protocol of a page.
type Mode uint8

const (
	// ModeSingle marks a page written by at most one process per
	// interval: no twins survive, no diffs are created, and readers
	// fetch full pages from the owner (the last writer).
	ModeSingle Mode = iota
	// ModeMulti marks a page with concurrent writers (typically a page
	// straddling a partition boundary): writers twin on first write and
	// emit word-granularity diffs when their interval closes.
	ModeMulti
)

func (m Mode) String() string {
	if m == ModeSingle {
		return "single"
	}
	return "multi"
}

// Config parameterises a Cluster.
type Config struct {
	// MaxHosts is the number of workstations in the pool (active or
	// not). Machines are pre-wired on the fabric; hosts activate as
	// they join the computation.
	MaxHosts int

	// Model is the virtual-time cost model; zero means simtime.Default.
	Model simtime.CostModel

	// Machine describes per-machine heterogeneity (CPU speed factors,
	// background-load traces); nil means a homogeneous pool, priced
	// like an explicit model with every factor at 1.0.
	Machine *machine.Model

	// Links configures per-link latency/bandwidth overrides on the
	// fresh fabric before any cost is priced; nil leaves every link at
	// the baseline. The hook runs once inside New.
	Links func(*simnet.Fabric) error

	// Protocol selects the coherence protocol; the zero value is Tmk,
	// the TreadMarks homeless LRC the paper's system uses.
	Protocol ProtocolKind

	// Adaptive selects the adaptive runtime variant. The paper's
	// headline result (Table 1) is that the adaptive system adds no
	// cost and identical traffic when no adapt events occur; the flag
	// exists so both variants can be measured side by side.
	Adaptive bool

	// Pages, when set, is the freelist the cluster draws its page and
	// twin buffers from, and Recycle hands them back to: a worker that
	// runs one simulation after another passes the same one to each
	// (see scenario.Workspace). Nil gives the cluster a private one. A
	// freelist serves one cluster at a time.
	Pages *page.Freelist
}

const defaultGCThreshold = 4 << 20

// Cluster is the DSM system spanning a pool of workstations.
type Cluster struct {
	cfg     Config
	costs   *machine.Costs
	fabric  *simnet.Fabric
	proto   Protocol
	hosts   []*Host
	regions []*Region
	locks   *lockTable

	// dir is the page directory, [region][page]: the replicated
	// per-page metadata (see pageMeta).
	dir [][]pageMeta

	// policy is the home-based core's per-page policy (classify.go):
	// set under hybrid, nil — the null policy — under HLRC and Tmk.
	policy *pagePolicy
	// homeBased is set under HLRC and hybrid: every page has a home,
	// whose clean copy a writer's twin may borrow (see borrow).
	homeBased bool

	// seq is the global interval sequence number. It advances at every
	// barrier and lock release.
	seq int32

	// releaseLog records pages modified by lock-release intervals since
	// the last barrier. releaseFloor is the highest sequence
	// pruneReleaseLog has dropped from it: an acquirer synchronised below
	// it would miss entries, and AcquireInterval panics.
	releaseLog   []relEntry
	releaseFloor int32

	// gcThreshold triggers a garbage collection at the next barrier once
	// accumulated diff storage exceeds it (defaultGCThreshold; a test
	// lowers it). Adaptation points force GC regardless. HLRC retains no
	// diffs, so the threshold never trips there.
	gcThreshold int

	// barrierStamp/barrierFirst are per-page barrier scratch, indexed
	// like the directory ([region][page]). A page whose stamp equals the
	// closing barrier's sequence has been claimed this barrier, and
	// barrierFirst names its first writer — replacing the per-barrier
	// writtenBy map that dominated barrier cost at full scale.
	// multiWriterScratch collects the (rare) pages with more than one
	// writer.
	barrierStamp       [][]int32
	barrierFirst       [][]HostID
	multiWriterScratch map[pageKey][]HostID

	// pagePool recycles page buffers for this cluster's serialised
	// events without synchronisation: Config.Pages, or a private
	// freelist. diffPool does the same for the diffs a hybrid home
	// retains in its windows.
	pagePool *page.Freelist
	diffPool page.DiffPool

	// pend is the home-based protocols' record, per page ([region][page]),
	// of the pushed words the page's home has not copied yet: valid while
	// the home's pageState.pending is set (see settle). Nil under Tmk.
	pend [][]pendingDiff

	// eng is the discrete-event engine driving the current parallel
	// construct (nil between constructs); blocking primitives park the
	// running proc on it.
	eng *engine.Engine

	stats Stats

	// tookMask, when set, sees every mask takeMask returns: the tests
	// that hold the write-once path to the twin path compare them.
	tookMask func(HostID, pageKey, page.Mask)
}

// New creates a cluster of cfg.MaxHosts workstations with only host 0
// (the master) active.
func New(cfg Config) (*Cluster, error) {
	if cfg.MaxHosts <= 0 {
		return nil, fmt.Errorf("dsm: MaxHosts must be positive, got %d", cfg.MaxHosts)
	}
	if cfg.Model.LinkBandwidth == 0 {
		cfg.Model = simtime.Default()
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	// A model spanning more machines than the pool is fine (the extras
	// are simply unused); one spanning fewer would panic at the first
	// lookup, so reject it here with a diagnosable error.
	if cfg.Machine != nil && cfg.Machine.Machines() < cfg.MaxHosts {
		return nil, fmt.Errorf("dsm: machine model spans only %d machines, pool has %d",
			cfg.Machine.Machines(), cfg.MaxHosts)
	}
	fabric := simnet.New(cfg.MaxHosts)
	if cfg.Links != nil {
		if err := cfg.Links(fabric); err != nil {
			return nil, fmt.Errorf("dsm: link configuration: %w", err)
		}
	}
	c := &Cluster{
		cfg:         cfg,
		costs:       machine.NewCosts(cfg.Model, fabric, cfg.Machine),
		fabric:      fabric,
		locks:       newLockTable(),
		gcThreshold: defaultGCThreshold,
		pagePool:    cfg.Pages,
	}
	if c.pagePool == nil {
		c.pagePool = new(page.Freelist)
	}
	proto, err := newProtocol(cfg.Protocol, c)
	if err != nil {
		return nil, err
	}
	c.proto = proto
	for i := 0; i < cfg.MaxHosts; i++ {
		c.hosts = append(c.hosts, newHost(c, HostID(i), simnet.MachineID(i)))
	}
	c.hosts[0].active = true
	return c, nil
}

// Model returns the cluster's baseline cost model.
func (c *Cluster) Model() simtime.CostModel { return c.costs.Base() }

// Costs returns the heterogeneity-aware cost layer every charge site
// prices through. Wherever the factors a charge reads are 1.0 it
// reproduces Model() bit for bit.
func (c *Cluster) Costs() *machine.Costs { return c.costs }

// Fabric exposes the network for traffic-window measurements.
func (c *Cluster) Fabric() *simnet.Fabric { return c.fabric }

// Master returns the master host (host 0, which runs the master
// process; the paper's current system cannot perform a normal leave of
// the master, and neither can this one).
func (c *Cluster) Master() *Host { return c.hosts[0] }

// Host returns the host with the given id.
func (c *Cluster) Host(id HostID) *Host {
	if int(id) < 0 || int(id) >= len(c.hosts) {
		panic(fmt.Sprintf("dsm: host %d out of range [0,%d)", id, len(c.hosts)))
	}
	return c.hosts[id]
}

// ActiveHosts returns the ids of hosts currently participating, in
// ascending order.
func (c *Cluster) ActiveHosts() []HostID {
	var ids []HostID
	for _, h := range c.hosts {
		if h.active {
			ids = append(ids, h.id)
		}
	}
	return ids
}

// Regions returns the allocated shared regions in allocation order.
func (c *Cluster) Regions() []*Region { return c.regions }

// Region is a shared-memory allocation made by the master before the
// first fork (the Tmk_malloc + Tmk_distribute idiom).
type Region struct {
	ID     RegionID
	Name   string
	Bytes  int
	NPages int
}

// Alloc creates a shared region of the given size, zero-initialised and
// owned by the master, mirroring Tmk_malloc on the master followed by
// Tmk_distribute of the pointer.
func (c *Cluster) Alloc(name string, bytes int) (*Region, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("dsm: region %q must have positive size, got %d", name, bytes)
	}
	r := &Region{
		ID:     RegionID(len(c.regions)),
		Name:   name,
		Bytes:  bytes,
		NPages: pageCount(bytes),
	}
	c.regions = append(c.regions, r)
	metas := make([]pageMeta, r.NPages)
	for i := range metas {
		metas[i].owner = c.Master().id
	}
	c.dir = append(c.dir, metas)
	if c.homeBased {
		c.pend = append(c.pend, make([]pendingDiff, r.NPages))
	}
	c.barrierStamp = append(c.barrierStamp, make([]int32, r.NPages))
	c.barrierFirst = append(c.barrierFirst, make([]HostID, r.NPages))
	for _, h := range c.hosts {
		h.addRegion(r.NPages)
	}
	// The protocol materialises the zero-filled pages: Tmk entirely at
	// the master, HLRC at each page's round-robin home (and the master,
	// which runs the sequential sections).
	c.proto.initRegion(r)
	return r, nil
}

// TotalSharedBytes returns the size of all allocated regions, the
// paper's "shared memory" column.
func (c *Cluster) TotalSharedBytes() int {
	t := 0
	for _, r := range c.regions {
		t += r.Bytes
	}
	return t
}
