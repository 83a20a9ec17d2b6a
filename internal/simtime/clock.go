package simtime

// Clock is the virtual clock of one logical process. A clock belongs to
// one run, whose engine runs one process at a time: the process
// advances its own clock, and the engine reads it between dispatches,
// after the coroutine switch that parked the process — a happens-before
// edge. So the instant is a plain field, and runs that execute
// concurrently (farm workers, the bench pool) each own their clocks.
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
