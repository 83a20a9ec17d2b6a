package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// ProtocolKind selects the coherence protocol a cluster runs. The zero
// value is Tmk, the TreadMarks homeless lazy-release-consistency
// protocol the paper's system is built on, so existing configurations
// are unchanged.
type ProtocolKind uint8

const (
	// Tmk is homeless lazy release consistency in the TreadMarks
	// style: writers keep their diffs, readers fetch them writer by
	// writer at fault time, and a garbage-collection pass periodically
	// consolidates the accumulated diffs at per-page owners. This is
	// the default and reproduces the paper's system bit for bit.
	Tmk ProtocolKind = iota
	// HLRC is home-based lazy release consistency: every page has a
	// home host (assigned round-robin by page, re-homed round-robin at
	// adaptation points when its home leaves), writers push their
	// diffs to the home eagerly when an interval closes, faults pull
	// the whole page from the home, and garbage collection is trivial
	// because no diff ever outlives its interval close (home.go).
	HLRC
	// Hybrid is the adaptive per-page protocol: the same home-based
	// core with its per-page policy (classify.go) switched on, which
	// migrates homes to dominant writers, switches diff-vs-whole-page
	// transfer on measured diff density, and elides twin/diff work for
	// proven single-writer pages.
	Hybrid
)

// String names the protocol the way the tools' -protocol flag spells
// it.
func (k ProtocolKind) String() string {
	switch k {
	case Tmk:
		return "tmk"
	case HLRC:
		return "hlrc"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("protocol(%d)", int(k))
}

// ParseProtocol parses a -protocol flag value.
func ParseProtocol(s string) (ProtocolKind, error) {
	switch s {
	case "", "tmk":
		return Tmk, nil
	case "hlrc":
		return HLRC, nil
	case "hybrid":
		return Hybrid, nil
	}
	return Tmk, fmt.Errorf("dsm: unknown protocol %q (want tmk, hlrc or hybrid)", s)
}

// Protocol is the decisions a coherence protocol makes; the mechanics
// around them are the Cluster's: region bookkeeping, the interval
// sequence, barrier arrival and write-notice traffic, locks, the
// adaptation entry points, and the whole release/acquire path (lock.go)
// — walking a releasing host's written pages, the release log (the
// Cluster alone appends to, searches, prunes and clears it), the
// dirty-peer check, the staleness test on acquire and the patch of a
// stale dirty copy and its twin — plus the one chain type retained diffs
// are kept in (chain.go) and the one priced diff transfer (fetchDiffs).
//
// The interface is deliberately implementation-gated (unexported
// methods): both implementations live in this package — tmk.go, and
// the home-based core of home.go that HLRC and hybrid share — and use
// the Cluster's internals. The contract each must honour:
//
//   - fault makes h's copy of the page readable and current as of the
//     page's latest committed interval, charging the requester.
//   - closePage commits interval s for one page at a barrier; on
//     return no listed writer holds a twin and every active host's
//     copy is either invalid or current (writers' sub-word races must
//     panic via Cluster.checkWordRaces).
//   - commitRelease commits interval s for one page h wrote, on a
//     release path: h's twin or elision is consumed, the words are
//     where the protocol keeps committed words (h's chain; the home),
//     and h's copy is current or invalid.
//     It returns the mask of the diff it made — empty when nothing
//     changed, and then nothing was committed — or elided when it
//     committed the page without one.
//   - missingDiffs hands an acquirer the committed diffs its stale dirty
//     copy lacks, in interval order, fetched and charged to clk. A
//     protocol that cannot supply them brings the copy current itself
//     and returns none. The result may alias protocol state: it is
//     valid until the next call.
//   - runGC reclaims consistency state; afterwards every page's
//     directory owner holds a valid current copy and every other copy
//     is either valid-and-current or absent (the invariant the
//     adaptation data movement relies on). Every copy the release log
//     could still invalidate is then current or gone, so the Cluster
//     clears the log after it (collect).
//   - storage reports the reclaimable consistency storage in bytes;
//     the barrier triggers a collection when it passes the configured
//     threshold.
//   - initRegion materialises a freshly allocated region's pages and
//     sets their directory owners.
//   - leaveStrategy maps the configured normal-leave handoff onto what
//     the protocol supports (HLRC always re-homes round-robin).
type Protocol interface {
	// Kind identifies the protocol.
	Kind() ProtocolKind

	fault(h *Host, pk pageKey, clk *simtime.Clock)
	closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds)
	commitRelease(h *Host, pk pageKey, pm *pageMeta, s int32, clk *simtime.Clock) (m page.Mask, elided bool)
	missingDiffs(h *Host, pk pageKey, meta *pageMeta, after, upTo int32, clk *simtime.Clock) []chainEntry
	runGC(active []HostID) simtime.Seconds
	storage() int
	initRegion(r *Region)
	leaveStrategy(s LeaveStrategy) LeaveStrategy
}

// newProtocol builds the configured protocol for a cluster.
func newProtocol(k ProtocolKind, c *Cluster) (Protocol, error) {
	c.homeBased = k != Tmk
	switch k {
	case Tmk:
		return &tmkProtocol{c: c}, nil
	case HLRC:
		return &homeProtocol{c: c}, nil
	case Hybrid:
		c.policy = &pagePolicy{c: c}
		return &homeProtocol{c: c}, nil
	}
	return nil, fmt.Errorf("dsm: unknown protocol kind %d", int(k))
}

// Protocol returns the cluster's coherence protocol kind.
func (c *Cluster) Protocol() ProtocolKind { return c.proto.Kind() }

// copyPageFrom is the whole-page transfer every protocol prices the
// same way: src's copy of the page is duplicated for h, the request
// and payload are recorded on the fabric, the requester-observed
// fetch cost is charged to clk, and the page-fetch counters advance.
// role names src's protocol role ("owner", "home") in the panic when
// it holds no copy. A home's copy is settled first; the caller frees
// h's old copy only after the transfer, so a source h still has the
// words. Returns the copied data and its appliedSeq.
func (c *Cluster) copyPageFrom(h, src *Host, pk pageKey, role string, clk *simtime.Clock) ([]byte, int32) {
	sst := &src.pages[pk.region][pk.page]
	if sst.data == nil {
		panic(fmt.Sprintf("dsm: %s %d of page %d/%d holds no copy", role, src.id, pk.region, pk.page))
	}
	if sst.pending {
		c.settle(src, pk)
	}
	data := c.pagePool.Copy(sst.data)
	applied := sst.appliedSeq

	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, page.Size+msgHeader)
	clk.Advance(c.costs.PageFetch(h.machine, src.machine, page.Size))
	c.stats.PageFetches++
	c.stats.PageBytes += page.Size
	return data, applied
}

// fetchDiffs is the diff transfer every protocol prices the same way:
// one request from h, one response from src carrying wire bytes of
// diffs, recorded on the fabric and counted; the requester-observed cost
// is returned for the caller to charge (a faulting host's clock, a
// collection's per-owner pull time). The caller says how many fetches
// that was: a fault counts every diff it pulls, a collection one per
// writer.
func (c *Cluster) fetchDiffs(h, src *Host, wire, count int) simtime.Seconds {
	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, wire+msgHeader)
	c.stats.DiffFetches += int64(count)
	c.stats.DiffBytes += int64(wire)
	return c.costs.DiffFetch(h.machine, src.machine, wire)
}
