package dsm

import (
	"bytes"
	"fmt"
)

// CheckInvariants validates the DSM's global invariants. It must be
// called with every process parked (between constructs, after a
// barrier); it inspects every host.
// Intended for tests and debugging — it is O(hosts x pages) and reads
// page contents, so it settles every home's pending words (Cluster.settle)
// once it has checked them, which changes no simulated number.
//
// The invariants checked:
//
//  1. Every page's directory owner is an active host.
//  2. The owner either holds a copy, or — between the owner's write
//     and its interval close — is the page's sole pending writer.
//  3. No host holds a twin, a write-once record or dirty marking, and
//     no page is borrowed or lent, outside an open interval (callers
//     must have closed all intervals, i.e. be at a barrier).
//  4. appliedSeq never exceeds the global interval sequence.
//  5. Per-writer notice records are positive and never newer than the
//     page's newest notice (which never exceeds the global sequence).
//  6. Every valid copy that claims to be fully current (appliedSeq ==
//     latest notice) has identical contents to every other such copy.
//  7. Inactive hosts hold no page data.
//  8. Pending words sit only at a page's home, on a clean copy, and
//     their source is another active host that holds a copy.
func (c *Cluster) CheckInvariants() error {
	active := make(map[HostID]bool)
	for _, h := range c.hosts {
		if h.active {
			active[h.id] = true
		}
		if h.onceOpen != 0 {
			return fmt.Errorf("dsm: invariant: host %d has %d write-once records open (call at a barrier)", h.id, h.onceOpen)
		}
	}

	for ri := range c.dir {
		r := RegionID(ri)
		for p := range c.dir[ri] {
			pm := &c.dir[ri][p]
			if !active[pm.owner] {
				return fmt.Errorf("dsm: invariant: page %d/%d owned by inactive host %d", r, p, pm.owner)
			}
			latest := pm.latestSeq()
			if latest > c.seq {
				return fmt.Errorf("dsm: invariant: page %d/%d notice seq %d beyond global %d", r, p, latest, c.seq)
			}
			for _, rec := range pm.writers {
				if rec.max < 1 || rec.max > pm.last {
					return fmt.Errorf("dsm: invariant: page %d/%d writer %d notice seq %d outside (0, %d]", r, p, rec.writer, rec.max, pm.last)
				}
			}

			for _, h := range c.hosts {
				if !h.pages[r][p].pending {
					continue
				}
				src := c.pend[r][p].src
				sst := &c.Host(src).pages[r][p]
				if h.id != pm.owner || h.pages[r][p].dirty || src == h.id || !c.Host(src).active || sst.data == nil {
					return fmt.Errorf("dsm: invariant: host %d holds pending words of page %d/%d from host %d (home %d, dirty %v, source active %v with a copy %v)",
						h.id, r, p, src, pm.owner, h.pages[r][p].dirty, c.Host(src).active, sst.data != nil)
				}
				c.settle(h, pageKey{r, p})
			}

			var current []byte
			var currentHost HostID
			for _, h := range c.hosts {
				st := &h.pages[r][p]
				switch {
				case !h.active:
					if st.data != nil {
						return fmt.Errorf("dsm: invariant: inactive host %d holds page %d/%d", h.id, r, p)
					}
				case st.dirty || st.twin != nil || st.once != 0:
					return fmt.Errorf("dsm: invariant: host %d has an open interval on page %d/%d (call at a barrier)", h.id, r, p)
				case st.borrowed || st.lent != 0:
					return fmt.Errorf("dsm: invariant: host %d page %d/%d borrowed or lent (%d) outside an open interval", h.id, r, p, st.lent)
				case st.appliedSeq > c.seq:
					return fmt.Errorf("dsm: invariant: host %d page %d/%d applied %d beyond global %d", h.id, r, p, st.appliedSeq, c.seq)
				case st.valid && st.data == nil:
					return fmt.Errorf("dsm: invariant: host %d page %d/%d valid without data", h.id, r, p)
				case st.valid && st.appliedSeq >= latest:
					// A fully-current copy: all such copies must agree.
					if current == nil {
						current = append([]byte(nil), st.data...)
						currentHost = h.id
					} else if !bytes.Equal(current, st.data) {
						return fmt.Errorf("dsm: invariant: hosts %d and %d disagree on current page %d/%d",
							currentHost, h.id, r, p)
					}
				}
			}

			owner := c.Host(pm.owner)
			ownerHasData := owner.pages[r][p].data != nil
			if !ownerHasData {
				return fmt.Errorf("dsm: invariant: owner %d of page %d/%d holds no copy", pm.owner, r, p)
			}
		}
	}
	return nil
}
