package dsm

import (
	"fmt"
	"sort"

	"nowomp/internal/page"
)

// chainEntry is one retained diff: the interval it committed, the
// writer that authored it, its wire size (what a transfer of it is
// charged, what the hybrid window bounds) and the diff itself. Diffs
// are immutable once made and may be shared by reference between hosts.
// diff is nil only in a hybrid window, for an entry of a page or more on
// the wire: any window containing it is at least a page too, and window
// transfers are only ever chosen below one page, so its payload could
// never be served.
type chainEntry struct {
	seq    int32
	writer HostID
	wire   int
	diff   *page.Diff
}

// diffChain is the retained diffs of one page, ascending by interval
// sequence, above a floor: a Tmk writer's own diffs of the page, kept
// until a collection, or the window a hybrid home keeps of the diffs
// applied to it. Invariant: every diff the chain was given with
// sequence above floor is still in entries, so a copy whose appliedSeq
// is at or above the floor finds in after everything the chain ever held
// that it lacks; a request from below the floor would silently miss the
// dropped diffs, and panics. The zero value is an empty chain, and a nil
// chain reads as one.
type diffChain struct {
	floor   int32
	entries []chainEntry
	bytes   int // total wire size of entries
}

// append retains e, which must not be older than the newest entry.
func (ch *diffChain) append(e chainEntry) {
	ch.entries = append(ch.entries, e)
	ch.bytes += e.wire
}

// after returns the entries with sequence in (seq, upTo], found by
// binary search: chains hold one entry per interval between collections
// and every caller wants a recent suffix. The result aliases the chain
// and is valid until its next append or dropThrough.
func (ch *diffChain) after(seq, upTo int32) []chainEntry {
	if ch == nil {
		return nil
	}
	if seq < ch.floor {
		panic(fmt.Sprintf("dsm: diffs after interval %d requested from a chain pruned through %d", seq, ch.floor))
	}
	e := ch.entries
	lo := sort.Search(len(e), func(i int) bool { return e[i].seq > seq })
	hi := lo + sort.Search(len(e)-lo, func(i int) bool { return e[lo+i].seq > upTo })
	return e[lo:hi]
}

// dropThrough raises the floor to seq, dropping the entries at or below
// it, and returns the wire bytes dropped; a seq at or below the floor
// changes nothing. The dropped diffs go back to pool when it is not nil
// (a hybrid window's, which nothing references once dropped), and the
// dropped records are zeroed so their diffs become collectable.
func (ch *diffChain) dropThrough(seq int32, pool *page.DiffPool) int {
	if seq <= ch.floor {
		return 0
	}
	ch.floor = seq
	e := ch.entries
	k := sort.Search(len(e), func(i int) bool { return e[i].seq > seq })
	if pool != nil {
		for i := range e[:k] {
			pool.Release(e[i].diff)
		}
	}
	dropped := wireOf(e[:k])
	n := copy(e, e[k:])
	clear(e[n:])
	ch.entries = e[:n]
	ch.bytes -= dropped
	return dropped
}

// wireOf sums the wire sizes of a run of entries: what one message
// carrying them all is charged.
func wireOf(entries []chainEntry) int {
	wire := 0
	for i := range entries {
		wire += entries[i].wire
	}
	return wire
}
