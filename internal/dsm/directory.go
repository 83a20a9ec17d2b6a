package dsm

import "sort"

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

// pendingWriters returns, in ascending host order, the writers holding
// diffs of the page newer than afterSeq, excluding the given host.
// Callers fetch each writer's diffs in one message; the writer's own
// chain supplies the per-interval sequences.
func pendingWriters(pm *pageMeta, afterSeq int32, self HostID) []HostID {
	var ws []HostID
	for _, rec := range pm.writers {
		if rec.max > afterSeq && rec.writer != self {
			ws = append(ws, rec.writer)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	return ws
}
