package dsm

import (
	"fmt"

	"nowomp/internal/simtime"
)

// ForceGC runs a garbage collection outside the automatic threshold
// trigger, as the adaptive system does at every adaptation point and
// before every checkpoint (sections 4.1-4.3). All active processes
// must be parked. Open intervals are closed first: the master may have
// written shared memory in the sequential section since the last
// barrier (for example a dynamic-schedule counter), and those writes
// must flush before the collection discards twins. What the collection
// itself does is protocol-specific: Tmk pulls every page's outstanding
// diffs to its owner and discards all consistency metadata, while the
// home-based protocols — whose homes are always current — have nothing
// to do. Both end with the Cluster's sweep (settlePage).
func (c *Cluster) ForceGC(active []HostID) simtime.Seconds {
	c.closeOpenIntervals(active)
	return c.collect(active)
}

// collect is a collection: the protocol brings every page's owner
// current (runGC), then every page is settled and the release log
// cleared — every copy an entry could still invalidate is now current
// or gone. All processes are parked.
func (c *Cluster) collect(active []HostID) simtime.Seconds {
	c.stats.GCs++
	elapsed := c.proto.runGC(active)
	for ri := range c.dir {
		for p := range c.dir[ri] {
			c.settlePage(RegionID(ri), p, &c.dir[ri][p], c.seq)
		}
	}
	c.releaseLog = c.releaseLog[:0]
	return elapsed
}

// settlePage is the per-page sweep every collection ends with, once
// the page's owner is current: on every host, including hosts that
// have left, the twin and dirty marking go, a copy that is the owner's
// or valid and current is renumbered to gcSeq, and any other copy is
// freed; then the page's write notices, its sharing mode and its policy
// history are reset (an adaptation redraws the partition map, so the old
// sharing history no longer describes the page). Afterwards the owner's
// copy is current and every other copy is current or absent — the
// invariant the adaptation data movement relies on.
func (c *Cluster) settlePage(r RegionID, p int, pm *pageMeta, gcSeq int32) {
	owner := c.Host(pm.owner)
	if owner.pages[r][p].data == nil {
		panic(fmt.Sprintf("dsm: %s: gc: owner %d of page %d/%d holds no copy", c.proto.Kind(), pm.owner, r, p))
	}
	c.settle(owner, pageKey{r, p}) // before the sweep frees the source's copy
	latest := pm.latestSeq()
	for _, h := range c.hosts {
		st := &h.pages[r][p]
		c.releasePage(st.twin)
		st.twin = nil
		h.dropOnce(st)
		st.dirty = false
		st.borrowed, st.lent = false, 0 // every host is swept, so both ends of a borrow go
		if h.id == pm.owner || (st.valid && st.appliedSeq >= latest) {
			st.appliedSeq = gcSeq
		} else {
			c.releasePage(st.data)
			*st = pageState{}
		}
	}
	pm.clearNotices()
	pm.baseSeq = gcSeq
	pm.mode = ModeSingle
	c.policy.reset(pageKey{r, p}, gcSeq)
}

// closeOpenIntervals flushes any host's open interval exactly as a
// barrier would. At an adaptation point only the master can have one,
// so each dirty page has a single writer.
func (c *Cluster) closeOpenIntervals(active []HostID) {
	flush := make([]simtime.Seconds, len(c.hosts))
	for _, id := range active {
		h := c.Host(id)
		w := h.takeWritten()
		if len(w) == 0 {
			continue
		}
		c.seq++
		s := c.seq
		for _, pk := range w {
			c.proto.closePage(pk, []HostID{id}, s, active, flush)
		}
	}
}
