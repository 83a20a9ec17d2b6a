package dsm

import "nowomp/internal/simtime"

// Task-runtime consistency entry points. Work stealing on a DSM ships
// a task closure between processes, and the thief must observe every
// shared-memory write that happened before the task became stealable.
// The task runtime brackets each steal (and each remotely-consumed task
// completion) with the same release/acquire pair the lock protocol
// uses: FlushInterval is the release half, AcquireInterval (lock.go)
// the acquire half. Both are priced — diff creation, invalidation and
// the later refetches all charge virtual time and fabric traffic —
// which is what makes the tasking-versus-loop-scheduling comparison
// meaningful: steals on a DSM are not free.

// HasOpenInterval reports whether the host has written shared memory
// since its interval last closed (at a barrier, lock release or flush).
func (h *Host) HasOpenInterval() bool {
	return len(h.written) > 0
}

// FlushInterval closes h's open interval outside any lock or barrier:
// the release half of a task-shipping handoff. It is a no-op (zero
// cost, zero traffic) when the host has not written since its interval
// last closed, so local-only task execution stays free. Diff-creation
// time is charged to clk, which need not be h's own process clock: a
// steal charges the thief, who waits for the victim's flush before the
// closure is shipped. Returns the number of diffs created.
func (c *Cluster) FlushInterval(h *Host, clk *simtime.Clock) int {
	if !h.HasOpenInterval() {
		return 0
	}
	return c.flushInterval(h, clk)
}
