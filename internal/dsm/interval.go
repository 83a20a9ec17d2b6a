package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// relEntry records a page modified by a lock-release interval since the
// last barrier; barriers use the log to invalidate stale copies and
// acquirers use it to honour happened-before writes.
type relEntry struct {
	pk  pageKey
	seq int32
}

// BarrierResult reports what a barrier did, for measurement.
type BarrierResult struct {
	ReleaseTime simtime.Seconds
	Seq         int32
	GCRan       bool
}

// Barrier closes the open interval of every active host: writers
// commit their modifications under the cluster's coherence protocol
// (Tmk turns twins into retained diffs or ownership claims, HLRC
// flushes diffs to each page's home), write notices are merged and
// broadcast, stale copies are invalidated, and, if the protocol's
// reclaimable storage exceeds the threshold, a garbage collection
// runs. The caller supplies each host's arrival time; the returned
// release time is when every process may continue.
//
// Barrier must be called with every active process parked (the OpenMP
// layer guarantees this); it is not safe to run concurrently with
// shared-memory accesses by active hosts.
func (c *Cluster) Barrier(active []HostID, arrivals []simtime.Seconds) BarrierResult {
	if len(active) != len(arrivals) {
		panic(fmt.Sprintf("dsm: %d active hosts but %d arrival times", len(active), len(arrivals)))
	}

	c.seq++
	s := c.seq
	c.stats.Barriers++

	var release simtime.Seconds
	for _, t := range arrivals {
		if t > release {
			release = t
		}
	}

	// Gather the dirty pages of every active host. Instead of a
	// per-barrier writtenBy map (whose hashing dominated barrier cost at
	// full scale), each page is claimed by stamping persistent per-page
	// scratch with this barrier's sequence; only pages with a second
	// writer — rare outside migratory phases — fall back to a map.
	wlists := make([][]pageKey, len(active))
	var multi map[pageKey][]HostID
	for i, id := range active {
		w := c.Host(id).takeWritten()
		wlists[i] = w
		for _, pk := range w {
			if c.barrierStamp[pk.region][pk.page] != s {
				c.barrierStamp[pk.region][pk.page] = s
				c.barrierFirst[pk.region][pk.page] = id
				continue
			}
			if multi == nil {
				if c.multiWriterScratch == nil {
					c.multiWriterScratch = make(map[pageKey][]HostID)
				}
				multi = c.multiWriterScratch
			}
			ws := multi[pk]
			if len(ws) == 0 {
				ws = append(ws, c.barrierFirst[pk.region][pk.page])
			}
			multi[pk] = append(ws, id)
		}
	}

	// Close intervals page by page under the coherence protocol, each
	// page once, at its first writer's occurrence — the same order the
	// map-based gather produced.
	flush := make([]simtime.Seconds, len(c.hosts))
	var one [1]HostID
	for i, id := range active {
		for _, pk := range wlists[i] {
			if c.barrierFirst[pk.region][pk.page] != id || c.barrierStamp[pk.region][pk.page] != s {
				continue // closed via the first writer
			}
			writers := multi[pk]
			if writers == nil {
				one[0] = id
				writers = one[:]
			}
			c.proto.closePage(pk, writers, s, active, flush)
		}
	}
	for pk := range multi {
		delete(multi, pk)
	}

	// Lock-release intervals since the last barrier may have modified
	// pages that non-participants still hold valid copies of.
	c.applyReleaseLog(active)

	// Account write-notice exchange: slaves send their notice lists to
	// the master, which broadcasts the merged list.
	c.accountBarrierTraffic(active, wlists)

	var maxFlush simtime.Seconds
	for _, id := range active {
		if f := flush[id]; f > maxFlush {
			maxFlush = f
		}
	}
	release += maxFlush + c.costs.Barrier(c.Master().machine, len(active), func(i int) simnet.MachineID {
		return c.Host(active[i]).machine
	})

	res := BarrierResult{ReleaseTime: release, Seq: s}
	if c.proto.storage() > c.gcThreshold {
		res.ReleaseTime += c.collect(active)
		res.GCRan = true
	}
	for _, id := range active {
		c.Host(id).syncSeq = s
	}
	return res
}

// takeMask closes h's writes to one page: the page is scanned against
// its twin (a borrowed page against the home's copy it borrowed, which
// is then returned) and the twin is released, or a write-once page
// hands over the mask it carries with no scan; the dirty state is
// consumed, and if any word changed the diff is counted and its
// creation charged to clk.
//
// With the twin gone, the mask stands for the diff only as long as
// nothing writes the page: whoever needs the words (Mask.Copy into the
// home's copy, Mask.Pack into a retained diff) reads them from the
// writer's live st.data. That is sound because no user code runs
// between take and use — at a barrier every process is parked, and on
// a flush path the running process is the writer itself, inside the
// flush — and because the only protocol writes in between are other
// writers' words landing on a home's copy, which checkWordRaces has
// by then proven disjoint from the mask.
func (c *Cluster) takeMask(h *Host, pk pageKey, clk *simtime.Clock) page.Mask {
	st := &h.pages[pk.region][pk.page]
	var m page.Mask
	if st.once != 0 {
		m = h.once[st.once-1].changed.Words()
		h.dropOnce(st)
	} else {
		pre := st.twin
		if st.borrowed {
			hst := &c.Host(c.meta(pk.region, pk.page).owner).pages[pk.region][pk.page]
			pre = hst.data
			hst.lent--
			st.borrowed = false
		}
		m = page.Scan(pre, st.data)
		c.releasePage(st.twin)
		st.twin = nil
	}
	st.dirty = false
	if c.tookMask != nil {
		c.tookMask(h.id, pk, m)
	}
	if !m.Empty() {
		c.stats.DiffsCreated++
		clk.Advance(c.costs.DiffCreate(h.machine, page.Size))
	}
	return m
}

// writerMask pairs the mask of a diff produced at one interval close
// with its writer, for the word-race check and the push that follows.
type writerMask struct {
	writer HostID
	mask   page.Mask
}

// checkWordRaces verifies that the diffs of concurrent writers of one
// page are word-disjoint. Diffs merge at 8-byte word granularity
// (page.WordBytes), so two processes writing within the same word in
// one interval silently lose one of the updates — the sub-word caveat
// on shmem.Array and Matrix. That is a program error (a data race on
// the real TreadMarks too); failing loudly here turns silent
// corruption into a diagnosable panic. The message names the region
// and the first conflicting word so the owner of the layout can find
// the offending elements.
func (c *Cluster) checkWordRaces(pk pageKey, made []writerMask) {
	for i := 0; i < len(made); i++ {
		for j := i + 1; j < len(made); j++ {
			if w, ok := made[i].mask.FirstOverlap(&made[j].mask); ok {
				panic(c.wordRaceMessage(made[i].writer, made[j].writer, pk, w,
					"in the same interval"))
			}
		}
	}
}

// wordRaceMessage renders the sub-word race diagnostic: both hosts,
// the region by name, the conflicting word and its byte offset within
// the region.
func (c *Cluster) wordRaceMessage(a, b HostID, pk pageKey, word int, when string) string {
	off := pk.page*page.Size + word*page.WordBytes
	return fmt.Sprintf(
		"dsm: hosts %d and %d both wrote within the %d-byte word at byte offset %d of region %q (page %d, word %d) %s; sub-word concurrent writes lose updates (keep concurrent writers %d bytes apart)",
		a, b, page.WordBytes, off, c.regions[pk.region].Name, pk.page, word, when, page.WordBytes)
}

// applyReleaseLog invalidates copies made stale by lock-release
// intervals since the last barrier, then clears the log.
func (c *Cluster) applyReleaseLog(active []HostID) {
	for _, e := range c.releaseLog {
		pm := c.meta(e.pk.region, e.pk.page)
		latest := pm.latestSeq()
		for _, id := range active {
			h := c.Host(id)
			st := &h.pages[e.pk.region][e.pk.page]
			if st.valid && st.appliedSeq < latest {
				st.valid = false
			}
		}
	}
	c.releaseLog = c.releaseLog[:0]
}

// accountBarrierTraffic records the write-notice exchange on the
// fabric: one arrival message per slave, one broadcast per slave.
// wlists holds each active host's written pages, parallel to active.
func (c *Cluster) accountBarrierTraffic(active []HostID, wlists [][]pageKey) {
	master := c.Master()
	total := 0
	for _, w := range wlists {
		total += len(w)
	}
	const noticeBytes = 8
	down := msgHeader + noticeBytes*total
	for i, id := range active {
		if id == master.id {
			continue
		}
		h := c.Host(id)
		up := msgHeader + noticeBytes*len(wlists[i])
		c.fabric.Record(h.machine, master.machine, up)
		c.fabric.Record(master.machine, h.machine, down)
	}
}
