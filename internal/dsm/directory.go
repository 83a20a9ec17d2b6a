package dsm

// noticeRec is the coalesced write-notice record for one writer of one
// page: the newest interval sequence in which the writer produced a
// diff. Fault and GC planning only ever need to know *which* writers
// have diffs newer than a horizon — the per-interval sequences are
// recovered from the writers' own diff chains — so one record per
// writer replaces the per-interval notice list that previously grew
// without bound between garbage collections and was rescanned linearly
// on every fault.
type noticeRec struct {
	writer HostID
	max    int32
}

// pageMeta is the replicated per-page metadata. In TreadMarks this
// state is piggybacked on barrier and lock messages; here a single
// logically-replicated directory holds it, and the barrier/GC code
// charges the broadcast traffic that replication would cost.
type pageMeta struct {
	mode  Mode
	owner HostID
	// baseSeq is the oldest interval for which diff-based upgrades are
	// possible. A copy with appliedSeq < baseSeq cannot be patched with
	// diffs (they were garbage collected, or the page was in
	// single-writer mode where no diffs exist) and must be replaced by
	// a full fetch from the owner. Invariant: the owner's copy always
	// has appliedSeq >= baseSeq.
	baseSeq int32
	// last is the newest write-notice sequence (zero when none are
	// outstanding; interval sequences start at one), and lastWriter the
	// writer that produced it — garbage collection hands the page to its
	// most recent writer. writers holds one coalesced record per writer
	// with outstanding notices.
	last       int32
	lastWriter HostID
	writers    []noticeRec
}

// latestSeq returns the newest write-notice sequence, or baseSeq when
// the page has no outstanding notices.
func (pm *pageMeta) latestSeq() int32 {
	if pm.last > 0 {
		return pm.last
	}
	return pm.baseSeq
}

// addNotice records that writer w produced a diff in interval s.
// Sequences only grow, so the per-writer record keeps the maximum.
func (pm *pageMeta) addNotice(w HostID, s int32) {
	pm.last = s
	pm.lastWriter = w
	for i := range pm.writers {
		if pm.writers[i].writer == w {
			pm.writers[i].max = s
			return
		}
	}
	pm.writers = append(pm.writers, noticeRec{writer: w, max: s})
}

// resetNotice replaces all outstanding notices with a single record:
// the single-writer interval close, where no diffs exist and older
// notices can never be patched in anyway.
func (pm *pageMeta) resetNotice(w HostID, s int32) {
	pm.writers = append(pm.writers[:0], noticeRec{writer: w, max: s})
	pm.last = s
	pm.lastWriter = w
}

// clearNotices discards all notice state (garbage collection,
// region installs).
func (pm *pageMeta) clearNotices() {
	pm.writers = nil
	pm.last = 0
	pm.lastWriter = 0
}

// meta returns the live metadata record of one page.
func (c *Cluster) meta(r RegionID, p int) *pageMeta { return &c.dir[r][p] }

// nextWriter returns the lowest host id above prev, other than self,
// of a writer holding diffs of the page newer than afterSeq, or -1 when
// there is none. Stepping from prev = -1 visits the pending writers in
// ascending host order without gathering them: callers fetch each
// writer's diffs in one message, and the writer's own chain supplies
// the per-interval sequences.
func (pm *pageMeta) nextWriter(afterSeq int32, self, prev HostID) HostID {
	next := HostID(-1)
	for _, rec := range pm.writers {
		if w := rec.writer; rec.max > afterSeq && w != self && w > prev && (next < 0 || w < next) {
			next = w
		}
	}
	return next
}
