package omp

import (
	"fmt"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/engine"
	"nowomp/internal/simtime"
)

// ClosureBytes is the wire size charged for one task closure shipped on
// a steal or a re-home: a function pointer plus a handful of captured
// scalars, as the SUIF-style outlining of a task body would produce.
const ClosureBytes = 64

// TaskStats summarises one task region for the evaluation harness. The
// accounting invariant the tests pin: every executed task was spawned
// exactly once (Spawned == Executed), and a task executes away from
// the process that spawned it only by being shipped there — so with no
// adaptations MigratedExec == Steals, and with re-homing
// MigratedExec <= Steals + Rehomed (a re-homed task may be shipped
// again, or happen to land back on its spawner).
type TaskStats struct {
	// Spawned counts tasks entered into deques, including the root.
	Spawned int64
	// Executed counts task bodies run to completion.
	Executed int64
	// Steals counts tasks shipped to an idle process; StealBytes is
	// the closure payload moved that way.
	Steals     int64
	StealBytes int64
	// Rehomed counts tasks shipped off a departing process's deque at
	// an adaptation; RehomeBytes is the payload.
	Rehomed     int64
	RehomeBytes int64
	// MigratedExec counts tasks that executed on a different host than
	// the one that spawned them.
	MigratedExec int64
	// RemoteCompletions counts completion notices sent because a task
	// finished on a different process than its parent.
	RemoteCompletions int64
	// FlushDiffs counts diffs created by steal- and completion-time
	// interval flushes (the release half of task shipping).
	FlushDiffs int64
	// Adaptations counts team changes applied at task scheduling
	// points within the region.
	Adaptations int64
	// ExecutedByHost breaks Executed down by executing host.
	ExecutedByHost map[dsm.HostID]int64
}

// Tasks executes one task region as a parallel construct: the team
// forks, the root task runs on the master, and processes pop, spawn
// and steal tasks until the region drains, then join at a barrier.
// Task scheduling points (spawn, taskwait, steal, completion) are
// adaptation points: matured join/leave events drain there, deques
// re-home onto the new team, and — because a leave is held until the
// departing process holds no task state — an irregular computation
// absorbs team resizes mid-tree transparently. With no adapt events the
// region adds zero adaptation overhead, and with a single process (or
// no steals) it prices exactly like the same code hand-scheduled.
func (rt *Runtime) Tasks(name string, root func(p *TaskProc)) TaskStats {
	r := &taskRegion{rt: rt, stats: TaskStats{ExecutedByHost: make(map[dsm.HostID]int64)}}
	for _, p := range rt.fork(name) {
		r.procs = append(r.procs, &TaskProc{Proc: p, r: r})
	}
	r.run(root)
	procs := make([]*Proc, len(r.procs))
	for i, tp := range r.procs {
		procs[i] = tp.Proc
	}
	rt.join(procs)
	return r.stats
}

// taskRegion executes one task region on the shared discrete-event
// engine: each process is an engine coroutine whose wake conditions
// encode the work-stealing schedule, so the engine's lowest-virtual-time
// election yields the deterministic dispatch order — ties broken by
// team slot — while DSM primitives reached from task bodies (lock
// acquires) park on the very same engine.
type taskRegion struct {
	rt    *Runtime
	eng   *engine.Engine
	procs []*TaskProc // the current team, slot-ordered
	live  int64       // tasks spawned and not yet completed
	stats TaskStats

	// wake is the region-wide wait list: every scheduling point parks
	// on it, and every mutation of the schedule state a wake condition
	// reads — deques, live, join counters, process kinds, the team
	// itself — notifies it. One list for the whole region (rather than
	// per-resource) because the wake conditions read global state:
	// victim selection scans every deque, and the drained check scans
	// every process.
	wake engine.WaitList
}

// run executes root on the slot-0 process (the master) and returns when
// every transitively spawned task has completed. The caller goroutine
// drives the engine; process coroutines run one at a time under its
// control, so execution is deterministic in virtual-time order. The
// engine is attached to the cluster for the duration, so lock acquires
// inside task bodies park on it too: a lock held across a scheduling
// point serialises the contenders instead of deadlocking the region
// (a genuine cycle still panics with the engine's deadlock
// diagnostic).
func (r *taskRegion) run(root func(*TaskProc)) {
	r.eng = engine.New()
	r.rt.cluster.BeginPhase(r.eng)
	defer r.rt.cluster.EndPhase()

	tp0 := r.procs[0]
	tp0.deque = append(tp0.deque, &task{body: root, home: tp0.host.ID(), at: tp0.clk.Now()})
	r.live = 1
	r.stats.Spawned = 1

	for _, tp := range r.procs {
		r.start(tp)
	}
	r.eng.Run()
}

// start registers a process coroutine with the engine, tie-break id its
// team slot.
func (r *taskRegion) start(tp *TaskProc) {
	tp.ep = r.eng.Go(tp.name(), tp.ID, tp.clk, func(*engine.Proc) { tp.run() })
}

// allAtTop reports whether every process has unwound to its top-level
// loop: with no live tasks left, that is the region's quiescent state.
func (r *taskRegion) allAtTop() bool {
	for _, tp := range r.procs {
		if !tp.exited && tp.kind != parkNeed {
			return false
		}
	}
	return true
}

// victim picks the steal victim for tp: the other process with the
// longest deque, ties to the lowest slot. Deterministic because the
// team is slot-ordered.
func (r *taskRegion) victim(tp *TaskProc) *TaskProc {
	var best *TaskProc
	for _, v := range r.procs {
		if v == tp || v.exited || len(v.deque) == 0 {
			continue
		}
		if best == nil || len(v.deque) > len(best.deque) {
			best = v
		}
	}
	return best
}

// popOwn takes the newest task from tp's own deque (LIFO). The removal
// can redirect a parked thief to a different victim whose top task is
// older — an earlier wake instant — so the wait list must be notified.
func (r *taskRegion) popOwn(tp *TaskProc) *task {
	t := tp.deque[len(tp.deque)-1]
	tp.deque = tp.deque[:len(tp.deque)-1]
	r.wake.Notify()
	return t
}

// steal ships the oldest task of v's deque to tp, pricing the exchange
// and the release/acquire pair that makes the victim's prior writes
// visible to the thief. All costs charge the thief, who waits for the
// closure; the victim is not interrupted (requester-pays, like every
// fetch in the DSM protocol).
func (r *taskRegion) steal(tp, v *TaskProc) *task {
	t := v.deque[0]
	v.deque = v.deque[1:]

	c := r.rt.cluster
	costs := c.Costs()
	thief, victim := tp.host.Machine(), v.host.Machine()
	tp.clk.AdvanceTo(t.at)
	c.Fabric().Record(thief, victim, msgHeader)
	c.Fabric().Record(victim, thief, ClosureBytes+msgHeader)
	tp.clk.Advance(costs.RoundTrip(thief, victim) + 2*costs.MsgOverhead(thief) +
		costs.Wire(victim, thief, ClosureBytes+msgHeader))

	// Release on the victim (charged to the waiting thief), acquire on
	// the thief: the task may read anything written before the steal.
	r.stats.FlushDiffs += int64(c.FlushInterval(v.host, tp.clk))
	c.AcquireInterval(tp.host, tp.clk)

	r.stats.Steals++
	r.stats.StealBytes += int64(ClosureBytes)
	// Like popOwn: shortening v's deque can switch other thieves to an
	// older victim task, moving their wake instants earlier.
	r.wake.Notify()
	return t
}

// complete records a task body's completion: join bookkeeping and, for
// a task whose parent waits on another process, the release and the
// completion notice that lets the waiter eventually acquire.
func (r *taskRegion) complete(tp *TaskProc, t *task) {
	// A completion can satisfy a parked TaskWait (join counter, remote
	// arrival instant) or the region-drained condition.
	defer r.wake.Notify()
	r.live--
	r.stats.Executed++
	r.stats.ExecutedByHost[tp.host.ID()]++
	if t.home != tp.host.ID() {
		r.stats.MigratedExec++
	}
	pf := t.parent
	if pf == nil {
		return
	}
	pf.outstanding--
	if pf.owner == tp || pf.owner.exited || pf.owner.retired {
		return
	}
	c := r.rt.cluster
	costs := c.Costs()
	r.stats.FlushDiffs += int64(c.FlushInterval(tp.host, tp.clk))
	c.Fabric().Record(tp.host.Machine(), pf.owner.host.Machine(), msgHeader)
	tp.clk.Advance(costs.MsgOverhead(tp.host.Machine()))
	arrival := tp.clk.Now() + costs.Latency(tp.host.Machine(), pf.owner.host.Machine())
	if arrival > pf.remoteDone {
		pf.remoteDone = arrival
	}
	pf.sawRemote = true
	r.stats.RemoteCompletions++
}

// maybeAdapt drains matured adapt events at virtual instant now, the
// instant the actor's wake fired at. Returns true if the team changed
// (the actor re-parks and the engine re-evaluates the schedule).
func (r *taskRegion) maybeAdapt(now simtime.Seconds) bool {
	rt := r.rt
	if rt.mgr == nil || rt.mgr.PendingCount() == 0 ||
		!rt.mgr.HasEligible(rt.cluster, rt.team, now, r.eligible) {
		return false
	}
	// Close every open interval so the adaptation's GC starts from the
	// well-defined state it requires; each process pays for its own
	// flush, as it would arriving at a barrier.
	for _, tp := range r.procs {
		r.stats.FlushDiffs += int64(rt.cluster.FlushInterval(tp.host, tp.clk))
	}
	// fork() has already counted this construct, so its ordinal is
	// forks-1 — what a fork-boundary adaptation of this construct would
	// have logged.
	elapsed, applied := rt.adapt(now, rt.forks-1, r.eligible)
	if !applied {
		return false
	}
	r.rebind(now + elapsed)
	r.stats.Adaptations++
	return true
}

// eligible is the region's adaptation filter: a leave applies only once
// its process is stackless; joins never wait.
func (r *taskRegion) eligible(e adapt.Event) bool {
	if e.Kind != adapt.KindLeave {
		return true
	}
	for _, tp := range r.procs {
		if tp.host.ID() == e.Host {
			return tp.stackless()
		}
	}
	return true
}

// rebind rebuilds the team's processes for rt.team, just reshaped by an
// adaptation, at virtual instant at: surviving processes keep their
// identity (and any suspended task state) under their new slot, joining
// hosts get fresh processes and coroutines, and departing processes —
// stackless by construction — are retired after their deques re-home
// round-robin onto the new team, priced as closure traffic. A retired
// process's coroutine exits at its next turn, with no further effect on
// the simulation.
func (r *taskRegion) rebind(at simtime.Seconds) {
	rt := r.rt
	byHost := make(map[dsm.HostID]*TaskProc, len(r.procs))
	for _, tp := range r.procs {
		byHost[tp.host.ID()] = tp
	}
	n := len(rt.team)
	next := make([]*TaskProc, n)
	for slot, h := range rt.team {
		if tp := byHost[h]; tp != nil {
			tp.ID, tp.N = slot, n
			tp.ep.SetID(slot)
			next[slot] = tp
			delete(byHost, h)
		} else {
			p := &Proc{ID: slot, N: n, rt: rt, host: rt.cluster.Host(h), clk: simtime.NewClock(at)}
			next[slot] = &TaskProc{Proc: p, r: r}
			r.start(next[slot])
		}
	}

	// Retire departed processes in old slot order, re-homing their tasks.
	costs := rt.cluster.Costs()
	fab := rt.cluster.Fabric()
	rr := 0
	for _, tp := range r.procs {
		if byHost[tp.host.ID()] != tp {
			continue
		}
		if !tp.stackless() {
			panic(fmt.Sprintf("omp: %s left the team holding task state", tp.name()))
		}
		for _, t := range tp.deque {
			dst := next[rr%len(next)]
			rr++
			fab.Record(tp.host.Machine(), dst.host.Machine(), ClosureBytes+msgHeader)
			dst.clk.Advance(costs.MsgOverhead(dst.host.Machine()) +
				costs.Wire(tp.host.Machine(), dst.host.Machine(), ClosureBytes+msgHeader))
			t.at = at
			dst.deque = append(dst.deque, t)
			r.stats.Rehomed++
			r.stats.RehomeBytes += int64(ClosureBytes)
		}
		tp.deque = nil
		tp.retired = true
	}

	r.procs = next
	// The adaptation is a global synchronisation: no process proceeds
	// before the transaction completes.
	for _, tp := range r.procs {
		tp.clk.AdvanceTo(at)
	}
	// The team, the deques and every clock changed: re-examine every
	// parked process (retired ones must wake to exit).
	r.wake.Notify()
}
