package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// LeaveStrategy selects how the pages exclusively owned by a leaving
// process are handed off at a normal leave.
type LeaveStrategy int

const (
	// LeaveViaMaster is the paper's algorithm (section 4.2): the master
	// fetches every page owned by the leaver and announces itself the
	// new owner. Section 7 notes this transfer via the master is a
	// bottleneck.
	LeaveViaMaster LeaveStrategy = iota
	// LeaveDirectHandoff is the improvement the paper leaves as future
	// work: the leaver's pages are handed to the remaining hosts round-
	// robin, spreading the transfer across links.
	LeaveDirectHandoff
)

func (s LeaveStrategy) String() string {
	if s == LeaveViaMaster {
		return "via-master"
	}
	return "direct-handoff"
}

// TransferReport describes the state movement caused by an adaptation
// operation.
type TransferReport struct {
	PagesMoved int
	BytesMoved int64
	Elapsed    simtime.Seconds
}

// NormalLeave executes the section 4.2 state transfer for a normal
// leave. The caller must have run ForceGC first (the adaptation-point
// sequence is: all processes parked, GC, leave/join processing, fork).
// Afterwards the leaver is inactive and holds no pages.
func (c *Cluster) NormalLeave(leaver HostID, strategy LeaveStrategy) (TransferReport, error) {
	h := c.Host(leaver)
	if !h.active {
		return TransferReport{}, fmt.Errorf("dsm: normal leave of inactive host %d", leaver)
	}
	if leaver == c.Master().id {
		// The paper's current system shares this limitation: the master
		// can migrate, but cannot perform a normal leave.
		return TransferReport{}, fmt.Errorf("dsm: master cannot perform a normal leave")
	}

	// The protocol may constrain the handoff: HLRC always re-homes the
	// leaver's pages round-robin across the remaining hosts, the same
	// policy the task runtime applies to a departing worker's deque.
	strategy = c.proto.leaveStrategy(strategy)

	// Choose destinations for the leaver's pages.
	var remaining []HostID
	for _, id := range c.ActiveHosts() {
		if id != leaver {
			remaining = append(remaining, id)
		}
	}
	var rep TransferReport
	perDest := make(map[HostID]simtime.Seconds)
	rr := 0
	for ri := range c.dir {
		r := RegionID(ri)
		for p := range c.dir[ri] {
			pm := &c.dir[ri][p]
			if pm.owner != leaver {
				continue
			}
			dest := c.Master().id
			if strategy == LeaveDirectHandoff {
				dest = remaining[rr%len(remaining)]
				rr++
			}
			if cost, moved := c.handoffPage(r, p, leaver, dest); moved {
				rep.PagesMoved++
				rep.BytesMoved += page.Size
				perDest[dest] += cost
			}
			pm.owner = dest
		}
	}
	// Transfers to distinct destinations proceed in parallel on the
	// switched network; the adaptation waits for the slowest link.
	// With the via-master strategy there is one destination, so the
	// transfer is fully serial — the paper's bottleneck.
	for _, t := range perDest {
		if t > rep.Elapsed {
			rep.Elapsed = t
		}
	}

	// Ownership-change broadcast.
	master := c.Master()
	ann := msgHeader + 4*rep.PagesMoved
	for _, id := range remaining {
		if id == master.id {
			continue
		}
		c.fabric.Record(master.machine, c.Host(id).machine, ann)
	}

	c.deactivate(h)
	return rep, nil
}

// handoffPage moves the owner's copy of a page to dest through
// copyPageFrom unless dest already holds a current copy, and returns
// the transfer's requester-observed cost for the caller to combine.
// Post-GC invariant: the owner's copy is valid and current, all other
// copies are either valid-and-current or absent.
func (c *Cluster) handoffPage(r RegionID, p int, owner, dest HostID) (simtime.Seconds, bool) {
	d := c.Host(dest)
	dst := &d.pages[r][p]
	if dst.valid {
		return 0, false // destination already current; just flip ownership
	}
	clk := simtime.NewClock(0)
	data, applied := c.copyPageFrom(d, c.Host(owner), pageKey{r, p}, "owner", clk)
	c.releasePage(dst.data)
	dst.data, dst.appliedSeq, dst.valid = data, applied, true
	return clk.Now(), true
}

func (c *Cluster) deactivate(h *Host) {
	h.active = false
	for ri := range h.pages {
		for p := range h.pages[ri] {
			st := &h.pages[ri][p]
			if st.borrowed || st.lent != 0 {
				// The other end of the borrow would dangle; a leave
				// follows a collection, which leaves none.
				panic(fmt.Sprintf("dsm: host %d deactivated with page %d/%d borrowed or lent", h.id, ri, p))
			}
			c.settleFrom(h, pageKey{RegionID(ri), p}) // a home may still need words only h's copy holds
			c.releasePage(st.data)
			c.releasePage(st.twin)
			h.dropOnce(st)
			*st = pageState{}
		}
	}
	h.written = nil
	h.dropDiffs()
}

// Join activates a host as a fresh process and sends it the page-
// location map (section 4.1: after GC it suffices to tell the joiner
// where an up-to-date copy of every page lives and which protocol each
// page uses). Data moves later through ordinary page faults.
func (c *Cluster) Join(id HostID) (TransferReport, error) {
	h := c.Host(id)
	if h.active {
		return TransferReport{}, fmt.Errorf("dsm: host %d is already active", id)
	}

	for ri := range h.pages {
		for p := range h.pages[ri] {
			h.pages[ri][p] = pageState{}
		}
	}
	h.written = nil
	h.dropDiffs()
	h.syncSeq = c.seq
	h.active = true

	totalPages := 0
	for _, r := range c.regions {
		totalPages += r.NPages
	}
	master := c.Master()
	bytes := msgHeader + c.costs.Base().PageMapEntryBytes*totalPages
	c.fabric.Record(master.machine, h.machine, bytes)
	c.fabric.Record(h.machine, master.machine, msgHeader)
	return TransferReport{
		BytesMoved: int64(bytes),
		Elapsed:    c.costs.JoinMap(master.machine, h.machine, bytes),
	}, nil
}

// CollectToMaster fetches a current copy of every shared page the
// master does not already hold, the data-gathering step of a
// checkpoint (section 4.3). Ownership does not change.
func (c *Cluster) CollectToMaster() TransferReport {
	master := c.Master()
	var rep TransferReport
	for ri := range c.dir {
		r := RegionID(ri)
		for p := range c.dir[ri] {
			pm := &c.dir[ri][p]
			current := master.pages[r][p].valid
			if current || pm.owner == master.id {
				continue
			}
			if cost, moved := c.handoffPage(r, p, pm.owner, master.id); moved {
				rep.PagesMoved++
				rep.BytesMoved += page.Size
				rep.Elapsed += cost
			}
		}
	}
	return rep
}

// OwnedPages counts the pages whose directory owner is the given host:
// the state that must move if that host leaves.
func (c *Cluster) OwnedPages(id HostID) int {
	n := 0
	for ri := range c.dir {
		for p := range c.dir[ri] {
			if c.dir[ri][p].owner == id {
				n++
			}
		}
	}
	return n
}

// PageOwner returns the directory owner of a page (measurement hook).
func (c *Cluster) PageOwner(r RegionID, p int) HostID {
	return c.dir[r][p].owner
}

// PageMode returns the sharing mode of a page (measurement hook).
func (c *Cluster) PageMode(r RegionID, p int) Mode {
	return c.dir[r][p].mode
}

// SetMachine rebinds a host to a machine, modelling the co-location of
// a migrated process with its target's process after an urgent leave.
func (c *Cluster) SetMachine(id HostID, m int) {
	if m < 0 || m >= c.fabric.Machines() {
		panic(fmt.Sprintf("dsm: machine %d out of range", m))
	}
	h := c.Host(id)
	h.machine = simnet.MachineID(m)
}
