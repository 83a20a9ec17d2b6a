package dsm

import "sort"

// Covered-prefix garbage collection of consistency metadata. Two
// structures grow with interval count between full GCs and were
// previously rescanned linearly on the hot synchronisation paths:
//
//   - each writer's per-page diff chain (Host.diffs, a diffChain),
//     searched on every fault, upgrade and GC pull;
//   - the cluster release log (Cluster.releaseLog), scanned on every
//     lock acquire.
//
// Both are append-only in ascending sequence order, and both have a
// covered prefix that no future operation can request: a diff with
// sequence at or below every copy's appliedSeq can never be fetched
// again (any future patch starts from some copy's appliedSeq, and a
// base refetch starts from the owner's), and a release-log entry at or
// below every active host's syncSeq has been honoured by everyone who
// will ever look. Pruning those prefixes (diffChain.dropThrough at
// diffFloor, in tmkProtocol.keepDiff; pruneReleaseLog) — plus
// binary-searching the suffix instead of rescanning from the start —
// makes the amortised per-operation metadata cost independent of how
// many intervals have passed since the last full GC.
//
// Pruning is host-local bookkeeping only. It charges no virtual time,
// records no fabric traffic, and deliberately does NOT lower
// Host.diffBytes: the GC-trigger accounting must see exactly the
// storage the unpruned protocol would, so GC fires at the same
// barriers and every scenario record stays byte-identical. Both
// structures keep the floor they were pruned through and check it where
// they are read: diffChain.after panics on a request from below a
// chain's floor, and AcquireInterval on an acquirer synchronised below
// Cluster.releaseFloor, so an over-prune fails at the first read that
// needed what it dropped instead of silently missing it.

// coalesceStride is the append interval between prune attempts:
// frequent enough that chains stay short, rare enough that the
// O(hosts) floor computation amortises away.
const coalesceStride = 32

// shouldPrune reports whether a structure that has grown to n entries
// should attempt a prune now.
func shouldPrune(n int) bool { return n%coalesceStride == 0 }

// diffFloor returns the highest sequence F such that no future
// operation can request diffs of pk with sequence <= F: the minimum
// appliedSeq over every copy of the page. Hosts without a copy start
// from a base fetched off the owner, whose appliedSeq participates in
// the minimum, so the floor covers them too.
func (c *Cluster) diffFloor(pk pageKey) int32 {
	floor := c.seq
	for _, h := range c.hosts {
		st := &h.pages[pk.region][pk.page]
		if st.data == nil {
			continue
		}
		if st.appliedSeq < floor {
			floor = st.appliedSeq
		}
	}
	return floor
}

// pruneReleaseLog drops the release-log prefix already honoured by
// every active host: entries ascending by sequence at or below the
// minimum active syncSeq can never be selected by a future acquire
// (joiners start synchronised to the joining barrier's sequence), and
// barriers clear the whole log regardless. The highest sequence dropped
// becomes the log's floor.
func (c *Cluster) pruneReleaseLog() {
	if len(c.releaseLog) == 0 {
		return
	}
	minSync := c.seq
	for _, h := range c.hosts {
		if h.active && h.syncSeq < minSync {
			minSync = h.syncSeq
		}
	}
	log := c.releaseLog
	k := sort.Search(len(log), func(i int) bool { return log[i].seq > minSync })
	if k == 0 {
		return
	}
	c.releaseFloor = log[k-1].seq
	copy(log, log[k:])
	c.releaseLog = log[:len(log)-k]
}
