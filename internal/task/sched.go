package task

import (
	"fmt"

	"nowomp/internal/dsm"
	"nowomp/internal/engine"
	"nowomp/internal/simtime"
)

// msgHeader is the DSM protocol header size, charged for steal
// requests, closure shipments and completion notices.
const msgHeader = dsm.MsgHeader

// ClosureBytes is the wire size charged for one task closure shipped on
// a steal or a re-home: a function pointer plus a handful of captured
// scalars, as the SUIF-style outlining of a task body would produce.
const ClosureBytes = 64

// AdaptHooks connects the scheduler to the adaptation machinery of the
// embedding runtime. All three callbacks run with every other worker
// parked (the engine serialises execution), at a task scheduling
// point.
type AdaptHooks struct {
	// Eligible reports whether at least one adapt event would apply at
	// virtual instant now. stackless tells the callback whether a
	// host's worker currently holds task state; leaves of non-stackless
	// hosts must be held back.
	Eligible func(now simtime.Seconds, stackless func(dsm.HostID) bool) bool
	// Apply performs the adaptation transaction (GC, leaves, joins,
	// reassignment) and returns the new slot-to-host mapping, the time
	// the adaptation added, and whether any event was applied.
	Apply func(now simtime.Seconds, stackless func(dsm.HostID) bool) (team []dsm.HostID, elapsed simtime.Seconds, applied bool)
	// Rebound is called after the worker set has been rebuilt for the
	// new team, slot-ordered, so the runtime can rebind process ids.
	Rebound func(ws []*Worker)
}

// Config parameterises a Runner.
type Config struct {
	// Cluster is the DSM substrate tasks ship across.
	Cluster *dsm.Cluster
	// Hooks enables adaptation at task scheduling points; nil runs the
	// region with a fixed team.
	Hooks *AdaptHooks
}

// Runner executes one task region on the shared discrete-event engine
// (internal/engine): each worker is an engine coroutine whose wake
// conditions encode the work-stealing schedule, so the engine's
// lowest-virtual-time election reproduces the deterministic dispatch
// order the task layer's bespoke scheduler used to implement — ties
// broken by team slot — while DSM primitives reached from task bodies
// (lock acquires) park on the very same engine. It is single-use.
type Runner struct {
	cfg     Config
	eng     *engine.Engine
	workers []*Worker
	live    int64 // tasks spawned and not yet completed
	stats   Stats

	// wake is the region-wide wait list: every worker scheduling point
	// parks on it, and every mutation of the schedule state a wake
	// condition reads — deques, live, join counters, worker kinds, the
	// team itself — notifies it. One list for the whole region (rather
	// than per-resource) because the wake conditions read global state:
	// victim selection scans every deque, and the drained check scans
	// every worker.
	wake engine.WaitList
}

// NewRunner returns a runner for one task region.
func NewRunner(cfg Config) *Runner {
	if cfg.Cluster == nil {
		panic("task: Config.Cluster is required")
	}
	return &Runner{
		cfg:   cfg,
		stats: Stats{ExecutedByHost: make(map[dsm.HostID]int64)},
	}
}

// AddWorker registers a team process, in slot order, before Run.
func (s *Runner) AddWorker(host *dsm.Host, clk *simtime.Clock) *Worker {
	w := &Worker{s: s, slot: len(s.workers), host: host, clk: clk}
	s.workers = append(s.workers, w)
	return w
}

// Workers returns the current slot-ordered worker set.
func (s *Runner) Workers() []*Worker { return s.workers }

// Run executes root on the slot-0 worker (the master) and returns when
// every transitively spawned task has completed. The caller goroutine
// drives the engine; worker coroutines run one at a time under its
// control, so execution is deterministic in virtual-time order. The
// engine is attached to the cluster for the duration, so lock acquires
// inside task bodies park on it too: a lock held across a scheduling
// point serialises the contenders instead of deadlocking the region
// (a genuine cycle still panics with the engine's deadlock
// diagnostic).
func (s *Runner) Run(root Body) Stats {
	if len(s.workers) == 0 {
		panic("task: Run with no workers")
	}
	s.eng = engine.New()
	s.cfg.Cluster.BeginPhase(s.eng)
	defer s.cfg.Cluster.EndPhase()

	w0 := s.workers[0]
	rootTask := &Task{body: root, home: w0.host.ID(), at: w0.clk.Now()}
	w0.deque = append(w0.deque, rootTask)
	s.live = 1
	s.stats.Spawned = 1

	for _, w := range s.workers {
		s.start(w)
	}
	s.eng.Run()
	return s.stats
}

// start registers a worker coroutine with the engine, tiebreak id its
// team slot.
func (s *Runner) start(w *Worker) {
	w.ep = s.eng.Go(w.String(), w.slot, w.clk, func(*engine.Proc) { w.run() })
}

// allAtTop reports whether every worker has unwound to its top-level
// loop: with no live tasks left, that is the region's quiescent state.
func (s *Runner) allAtTop() bool {
	for _, w := range s.workers {
		if !w.exited && w.kind != parkNeed {
			return false
		}
	}
	return true
}

// victim picks the steal victim for w: the other worker with the
// longest deque, ties to the lowest slot. Deterministic because the
// worker list is slot-ordered.
func (s *Runner) victim(w *Worker) *Worker {
	var best *Worker
	for _, v := range s.workers {
		if v == w || v.exited || len(v.deque) == 0 {
			continue
		}
		if best == nil || len(v.deque) > len(best.deque) {
			best = v
		}
	}
	return best
}

// popOwn takes the newest task from w's own deque (LIFO). The removal
// can redirect a parked thief to a different victim whose top task is
// older — an earlier wake instant — so the wait list must be notified.
func (s *Runner) popOwn(w *Worker) *Task {
	t := w.deque[len(w.deque)-1]
	w.deque = w.deque[:len(w.deque)-1]
	s.wake.Notify()
	return t
}

// steal ships the oldest task of v's deque to w, pricing the exchange
// and the release/acquire pair that makes the victim's prior writes
// visible to the thief. All costs charge the thief, who waits for the
// closure; the victim is not interrupted (requester-pays, like every
// fetch in the DSM protocol).
func (s *Runner) steal(w, v *Worker) *Task {
	t := v.deque[0]
	v.deque = v.deque[1:]
	t.stolen = true

	costs := s.cfg.Cluster.Costs()
	fab := s.cfg.Cluster.Fabric()
	thief, victim := w.host.Machine(), v.host.Machine()
	w.clk.AdvanceTo(t.at)
	fab.Record(thief, victim, msgHeader)
	fab.Record(victim, thief, ClosureBytes+msgHeader)
	w.clk.Advance(costs.RoundTrip(thief, victim) + 2*costs.MsgOverhead(thief) +
		costs.Wire(victim, thief, ClosureBytes+msgHeader))

	// Release on the victim (charged to the waiting thief), acquire on
	// the thief: the task may read anything written before the steal.
	s.stats.FlushDiffs += int64(s.cfg.Cluster.FlushInterval(v.host, w.clk))
	s.cfg.Cluster.AcquireInterval(w.host, w.clk)

	s.stats.Steals++
	s.stats.StealBytes += int64(ClosureBytes)
	// Like popOwn: shortening v's deque can switch other thieves to an
	// older victim task, moving their wake instants earlier.
	s.wake.Notify()
	return t
}

// complete records a task body's completion: join bookkeeping and, for
// a task whose parent waits on another process, the release and the
// completion notice that lets the waiter eventually acquire.
func (s *Runner) complete(w *Worker, t *Task) {
	// A completion can satisfy a parked TaskWait (join counter, remote
	// arrival instant) or the region-drained condition.
	defer s.wake.Notify()
	s.live--
	s.stats.Executed++
	w.executed++
	s.stats.ExecutedByHost[w.host.ID()]++
	if t.home != w.host.ID() {
		s.stats.MigratedExec++
	}
	pf := t.parent
	if pf == nil {
		return
	}
	pf.outstanding--
	if pf.owner == w || pf.owner.exited || pf.owner.retired {
		return
	}
	costs := s.cfg.Cluster.Costs()
	s.stats.FlushDiffs += int64(s.cfg.Cluster.FlushInterval(w.host, w.clk))
	s.cfg.Cluster.Fabric().Record(w.host.Machine(), pf.owner.host.Machine(), msgHeader)
	w.clk.Advance(costs.MsgOverhead(w.host.Machine()))
	arrival := w.clk.Now() + costs.Latency(w.host.Machine(), pf.owner.host.Machine())
	if arrival > pf.remoteDone {
		pf.remoteDone = arrival
	}
	pf.sawRemote = true
	s.stats.RemoteCompletions++
}

// maybeAdapt drains matured adapt events at virtual instant now, the
// instant the actor's wake fired at. Returns true if the team changed
// (the actor re-parks and the engine re-evaluates the schedule).
func (s *Runner) maybeAdapt(now simtime.Seconds) bool {
	h := s.cfg.Hooks
	if h == nil {
		return false
	}
	stackless := func(id dsm.HostID) bool {
		for _, w := range s.workers {
			if w.host.ID() == id {
				return w.stackless()
			}
		}
		return true
	}
	if !h.Eligible(now, stackless) {
		return false
	}
	// Close every open interval so the adaptation's GC starts from the
	// well-defined state it requires; each process pays for its own
	// flush, as it would arriving at a barrier.
	for _, w := range s.workers {
		s.stats.FlushDiffs += int64(s.cfg.Cluster.FlushInterval(w.host, w.clk))
	}
	team, elapsed, applied := h.Apply(now, stackless)
	if !applied {
		return false
	}
	s.rebind(team, now+elapsed)
	s.stats.Adaptations++
	return true
}

// rebind rebuilds the worker set for the new team at virtual instant
// at: surviving workers keep their identity (and any suspended task
// state) under their new slot, joining hosts get fresh coroutines, and
// departing workers — stackless by construction — are retired after
// their deques re-home round-robin onto the new team, priced as
// closure traffic. A retired worker's coroutine exits at its next
// turn, with no further effect on the simulation.
func (s *Runner) rebind(team []dsm.HostID, at simtime.Seconds) {
	byHost := make(map[dsm.HostID]*Worker, len(s.workers))
	for _, w := range s.workers {
		byHost[w.host.ID()] = w
	}
	next := make([]*Worker, len(team))
	for slot, h := range team {
		if w := byHost[h]; w != nil {
			w.slot = slot
			w.ep.SetID(slot)
			next[slot] = w
			delete(byHost, h)
		} else {
			w := &Worker{s: s, slot: slot, host: s.cfg.Cluster.Host(h),
				clk: simtime.NewClock(at)}
			next[slot] = w
			s.start(w)
		}
	}

	// Retire departed workers in old slot order, re-homing their tasks.
	costs := s.cfg.Cluster.Costs()
	fab := s.cfg.Cluster.Fabric()
	rr := 0
	for _, w := range s.workers {
		if byHost[w.host.ID()] != w {
			continue
		}
		if !w.stackless() {
			panic(fmt.Sprintf("task: %v left the team holding task state", w))
		}
		for _, t := range w.deque {
			dst := next[rr%len(next)]
			rr++
			fab.Record(w.host.Machine(), dst.host.Machine(), ClosureBytes+msgHeader)
			dst.clk.Advance(costs.MsgOverhead(dst.host.Machine()) +
				costs.Wire(w.host.Machine(), dst.host.Machine(), ClosureBytes+msgHeader))
			t.at = at
			t.rehomed = true
			dst.deque = append(dst.deque, t)
			s.stats.Rehomed++
			s.stats.RehomeBytes += int64(ClosureBytes)
		}
		w.deque = nil
		w.retired = true
	}

	s.workers = next
	// The adaptation is a global synchronisation: no process proceeds
	// before the transaction completes.
	for _, w := range s.workers {
		w.clk.AdvanceTo(at)
	}
	if s.cfg.Hooks.Rebound != nil {
		s.cfg.Hooks.Rebound(s.workers)
	}
	// The team, the deques and every clock changed: re-examine every
	// parked worker (retired ones must wake to exit).
	s.wake.Notify()
}
