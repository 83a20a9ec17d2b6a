package dsm

import (
	"fmt"

	"nowomp/internal/page"
)

// DumpRegion returns the full contents of a region read from the
// master's copies, without protocol traffic or cost. The master must
// hold a valid copy of every page — run CollectToMaster first; this is
// exactly the checkpoint sequence of section 4.3 (GC, collect, write).
func (c *Cluster) DumpRegion(r *Region) ([]byte, error) {
	m := c.Master()
	out := make([]byte, r.Bytes)
	for p := 0; p < r.NPages; p++ {
		st := &m.pages[r.ID][p]
		if !st.valid || st.data == nil {
			return nil, fmt.Errorf("dsm: dump %q: master lacks a valid copy of page %d (run CollectToMaster first)", r.Name, p)
		}
		c.settle(m, pageKey{r.ID, p})
		lo := p * page.Size
		hi := lo + page.Size
		if hi > r.Bytes {
			hi = r.Bytes
		}
		copy(out[lo:hi], st.data[:hi-lo])
	}
	return out, nil
}

// InstallRegion overwrites a region's contents on the master, making
// the master the current owner of every page, without protocol traffic
// or cost. This is the recovery path: after a restart from checkpoint
// all shared state lives at the master and redistributes through
// ordinary page faults.
func (c *Cluster) InstallRegion(r *Region, data []byte) error {
	if len(data) != r.Bytes {
		return fmt.Errorf("dsm: install %q: got %d bytes, want %d", r.Name, len(data), r.Bytes)
	}
	m := c.Master()
	for p := 0; p < r.NPages; p++ {
		st := &m.pages[r.ID][p]
		if st.data == nil {
			st.data = c.newPage()
		}
		lo := p * page.Size
		hi := lo + page.Size
		if hi > r.Bytes {
			hi = r.Bytes
		}
		copy(st.data[:hi-lo], data[lo:hi])
		st.pending = false // the install overwrote every word the master lacked
		st.valid = true
		st.dirty = false
		c.releasePage(st.twin)
		st.twin = nil
		m.dropOnce(st)
		st.borrowed, st.lent = false, 0 // every other host's state is reset below
		st.appliedSeq = c.seq
	}
	for p := 0; p < r.NPages; p++ {
		pm := c.meta(r.ID, p)
		pm.owner = m.id
		pm.mode = ModeSingle
		pm.clearNotices()
		pm.baseSeq = c.seq
		// Any other copies are stale relative to the installed state.
		for _, h := range c.hosts {
			if h.id == m.id {
				continue
			}
			st := &h.pages[r.ID][p]
			c.releasePage(st.data)
			c.releasePage(st.twin)
			h.dropOnce(st)
			*st = pageState{}
		}
	}
	return nil
}
