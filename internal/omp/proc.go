package omp

import (
	"fmt"

	"nowomp/internal/dsm"
	"nowomp/internal/shmem"
	"nowomp/internal/simtime"
)

// Proc is one process of a forked team, passed to parallel bodies.
// It carries the process's address space and virtual clock; shared-
// array accesses through Mem() fault and charge against it.
type Proc struct {
	// ID is the OpenMP process id within the current team, 0..N-1.
	// The master process always has id 0.
	ID int
	// N is the team size for this parallel construct. It is constant
	// within the construct but may change at any fork (section 2).
	N int

	rt   *Runtime
	host *dsm.Host
	clk  *simtime.Clock

	// Reduction state, set by For when WithReduce is active. partial
	// points at this process's slot of the construct's partials; only
	// this process writes it.
	partial *float64
	redOp   func(a, b float64) float64
}

// Contribute folds v into this process's reduction partial. It may be
// called any number of times within the construct (once per chunk,
// say) and only inside a For given WithReduce; the master combines the
// per-process partials in id order at the join.
func (p *Proc) Contribute(v float64) {
	if p.redOp == nil {
		panic("omp: Contribute called outside a WithReduce loop")
	}
	*p.partial = p.redOp(*p.partial, v)
}

// Mem returns the shared-memory access context for this process.
func (p *Proc) Mem() shmem.Context {
	return shmem.Context{Host: p.host, Clock: p.clk}
}

// Host returns the workstation process id this proc runs as.
func (p *Proc) Host() dsm.HostID { return p.host.ID() }

// Now returns the process's virtual time.
func (p *Proc) Now() simtime.Seconds { return p.clk.Now() }

// Charge advances the process's clock by the given compute time. The
// applications charge their arithmetic with per-element costs
// calibrated from the paper's one-processor runtimes, so the real
// computation can run on scaled-down data while virtual time follows
// the paper's cost structure. On a heterogeneous pool the baseline
// charge stretches by the executing machine's slowdown, (1+load)/speed
// integrated over its load trace — this is where Static and the
// dynamic schedules genuinely diverge on skewed machines.
func (p *Proc) Charge(d simtime.Seconds) {
	if d < 0 {
		panic(fmt.Sprintf("omp: negative compute charge %v", d))
	}
	costs := p.rt.cluster.Costs()
	p.clk.Advance(costs.Compute(p.host.Machine(), p.clk.Now(), d))
}

// ChargeUnits charges n units of work at perUnit each.
func (p *Proc) ChargeUnits(n int, perUnit simtime.Seconds) {
	if n < 0 {
		panic(fmt.Sprintf("omp: negative unit count %d", n))
	}
	p.Charge(simtime.Seconds(n) * perUnit)
}

// Lock acquires the numbered Tmk lock for this process. Acquires park
// the process on the construct's discrete-event engine; grants follow
// (virtual request time, host id) order regardless of the Go
// scheduler. Inside a task region a lock held across a scheduling
// point (Spawn/TaskWait) simply serialises the contenders — the engine
// resumes the holder before granting the waiter. A genuine cycle (a
// process re-acquiring a lock its own host already holds, with no
// runnable process left) panics with the engine's deadlock diagnostic
// naming every parked process and its wait reason. The id dynLock
// (1<<30) is reserved for the dynamic schedules' chunk counter and
// panics.
func (p *Proc) Lock(id int) {
	checkUserLock(id)
	p.rt.cluster.AcquireLock(id, p.host, p.clk)
}

// Unlock releases the numbered Tmk lock. Only the host holding it may
// release it; the reserved id panics as in Lock.
func (p *Proc) Unlock(id int) {
	checkUserLock(id)
	p.rt.cluster.ReleaseLock(id, p.host, p.clk)
}

// checkUserLock refuses the lock id the runtime reserves.
func checkUserLock(id int) {
	if id == dynLock {
		panic(fmt.Sprintf("omp: lock id %d is reserved for the dynamic and guided schedules' chunk counter", id))
	}
}

// Block returns this process's static block partition of [lo,hi):
// iteration i goes to the process with id i*N/n. This is the partition
// the compiler-generated code computes from (id, nprocs) at every
// fork, the mechanism that makes re-partitioning after adaptation
// automatic.
func (p *Proc) Block(lo, hi int) (mylo, myhi int) {
	return blockRange(lo, hi, p.ID, p.N)
}

func blockRange(lo, hi, id, n int) (int, int) {
	total := hi - lo
	if total < 0 {
		panic(fmt.Sprintf("omp: invalid iteration space [%d,%d)", lo, hi))
	}
	return lo + id*total/n, lo + (id+1)*total/n
}
