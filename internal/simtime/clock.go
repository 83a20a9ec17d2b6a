package simtime

// Clock is the virtual clock of one logical process. A clock belongs to
// one run, whose engine runs one process at a time: the process
// advances its own clock, and the engine reads it between dispatches,
// after the coroutine switch that parked the process — a happens-before
// edge. So the instant is a plain field, like dsm.Counter's count, and
// runs that execute concurrently (farm workers, the bench pool) each
// own their clocks.
type Clock struct {
	at Seconds
}

// NewClock returns a clock set to the given instant.
func NewClock(at Seconds) *Clock {
	return &Clock{at: at}
}

// Now returns the current virtual instant.
func (c *Clock) Now() Seconds {
	return c.at
}

// Advance moves the clock forward by d. Negative advances are ignored:
// virtual time never runs backwards.
func (c *Clock) Advance(d Seconds) {
	if d > 0 {
		c.at += d
	}
}

// AdvanceTo moves the clock forward to at if at is in the future.
func (c *Clock) AdvanceTo(at Seconds) {
	if at > c.at {
		c.at = at
	}
}

// Sync sets both clocks to the later of the two instants, modelling a
// synchronous rendezvous. Both clocks must be quiescent (no concurrent
// advancement).
func Sync(a, b *Clock) {
	if a.at > b.at {
		b.at = a.at
	} else {
		a.at = b.at
	}
}

// Max returns the latest instant among the given clocks, or zero if
// none are given.
func Max(clocks ...*Clock) Seconds {
	var m Seconds
	for _, c := range clocks {
		if c != nil && c.at > m {
			m = c.at
		}
	}
	return m
}
