package omp

import (
	"fmt"

	"nowomp/internal/shmem"
)

// Schedule identifies an iteration-scheduling policy for For. Every
// policy recomputes its assignment from (process id, team size) or
// from shared DSM state at the fork, so all of them re-partition
// automatically when the team changes at an adaptation point.
type Schedule int

const (
	// Static gives each process one contiguous block, the OpenMP
	// default schedule and the paper's partition.
	Static Schedule = iota
	// StaticChunk deals fixed-size chunks round-robin: process i runs
	// chunks i, i+N, i+2N, ... (OpenMP schedule(static, chunk)).
	StaticChunk
	// Dynamic has processes claim fixed-size chunks from a shared
	// counter in DSM memory guarded by a Tmk lock. Claiming costs real
	// lock and page traffic, exactly as it would on the NOW.
	Dynamic
	// Guided is Dynamic with shrinking chunks: each claim takes
	// remaining/nprocs iterations, never less than the configured
	// minimum (OpenMP schedule(guided, chunk)). Large early chunks
	// keep lock traffic low; small late chunks balance the tail.
	Guided
)

// String names the schedule for diagnostics.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case StaticChunk:
		return "static-chunk"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("schedule(%d)", int(s))
}

type forConfig struct {
	sched    Schedule
	chunk    int
	reduce   bool
	identity float64
	op       func(a, b float64) float64
}

// ForOption configures one For construct.
type ForOption func(*forConfig)

// WithSchedule selects the iteration schedule. chunk is the chunk size
// for StaticChunk and Dynamic and the minimum chunk size for Guided
// (0 means 1); Static ignores it.
func WithSchedule(s Schedule, chunk int) ForOption {
	return func(c *forConfig) {
		c.sched = s
		c.chunk = chunk
	}
}

// WithReduce attaches a floating-point reduction: each process folds
// the values it passes to Proc.Contribute into a private partial
// starting from identity, and the master combines the partials in
// process-id order at the join, so the result is deterministic for any
// static schedule. identity must be a true identity of op (0 for sum,
// -Inf for max, ...). For returns the combined value.
func WithReduce(identity float64, op func(a, b float64) float64) ForOption {
	return func(c *forConfig) {
		c.reduce = true
		c.identity = identity
		c.op = op
	}
}

// For executes body over the iteration space [lo,hi) as one parallel
// construct — fork, partitioned loop, join at a barrier — under the
// configured schedule (Static by default). The fork boundary is an
// adaptation point where pending adapt events are applied first; the
// partition is recomputed from the post-adaptation (id, nprocs), which
// is what makes adaptation transparent. Body receives each assigned
// range, possibly once per chunk. With WithReduce, For returns the
// combined reduction value; otherwise it returns 0.
func (rt *Runtime) For(name string, lo, hi int, body func(p *Proc, lo, hi int), opts ...ForOption) float64 {
	cfg := forConfig{sched: Static, chunk: 1}
	for _, o := range opts {
		o(&cfg)
	}
	switch cfg.sched {
	case Static:
	case StaticChunk, Dynamic:
		if cfg.chunk <= 0 {
			panic(fmt.Sprintf("omp: chunk size must be positive, got %d", cfg.chunk))
		}
	case Guided:
		if cfg.chunk < 0 {
			panic(fmt.Sprintf("omp: guided minimum chunk must be >= 0, got %d", cfg.chunk))
		}
		if cfg.chunk == 0 {
			cfg.chunk = 1
		}
	default:
		panic(fmt.Sprintf("omp: unknown schedule %v", cfg.sched))
	}
	if cfg.reduce && cfg.op == nil {
		panic("omp: WithReduce requires a non-nil combine operator")
	}

	// Counter-based schedules reset their shared counter in the
	// sequential section, before the fork (and so before adaptation).
	var ctr *shmem.Array[int64]
	if cfg.sched == Dynamic || cfg.sched == Guided {
		ctr = rt.dynCounter()
		ctr.Set(rt.MasterProc().Mem(), 0, int64(lo))
	}

	procs := rt.fork(name)
	var partials []float64
	if cfg.reduce {
		partials = make([]float64, len(procs))
		for i := range partials {
			partials[i] = cfg.identity
		}
		for i, p := range procs {
			p.partial, p.redOp = &partials[i], cfg.op
		}
	}
	rt.run(procs, func(p *Proc) {
		runSchedule(cfg, ctr, lo, hi, p, body)
	})
	if cfg.reduce {
		// Each slave ships its partial to the master with its barrier
		// arrival message.
		master := rt.cluster.Master()
		for _, p := range procs[1:] {
			rt.cluster.Fabric().Record(p.host.Machine(), master.Machine(), 8)
		}
	}
	rt.join(procs)
	if !cfg.reduce {
		return 0
	}
	acc := cfg.identity
	for _, v := range partials {
		acc = cfg.op(acc, v)
	}
	rt.master.Advance(rt.cluster.Costs().MsgOverhead(rt.cluster.Master().Machine()))
	return acc
}

// runSchedule drives body on one process under the configured
// schedule.
func runSchedule(cfg forConfig, ctr *shmem.Array[int64], lo, hi int, p *Proc, body func(p *Proc, lo, hi int)) {
	switch cfg.sched {
	case Static:
		mylo, myhi := p.Block(lo, hi)
		if mylo < myhi {
			body(p, mylo, myhi)
		}
	case StaticChunk:
		for start := lo + p.ID*cfg.chunk; start < hi; start += p.N * cfg.chunk {
			end := min(start+cfg.chunk, hi)
			body(p, start, end)
		}
	case Dynamic, Guided:
		cl := p.rt.cluster
		for {
			cl.AcquireLock(dynLock, p.host, p.clk)
			next := int(ctr.Get(p.Mem(), 0))
			var end int
			if next < hi {
				c := cfg.chunk
				if cfg.sched == Guided {
					if g := (hi - next) / p.N; g > c {
						c = g
					}
				}
				end = min(next+c, hi)
				// The claim stores slot 0 once per lock interval (the
				// release below closes it, and runSchedule is dynLock's
				// only user), so the counter page carries the claim's
				// report instead of a twin.
				slot, ch := ctr.WriteSpanOnce(p.Mem(), 0, 1)
				if slot[0] != int64(end) {
					slot[0] = int64(end)
					ch.Set(0)
				}
			}
			cl.ReleaseLock(dynLock, p.host, p.clk)
			if next >= hi {
				return
			}
			body(p, next, end)
		}
	}
}
