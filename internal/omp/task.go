package omp

import (
	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
	"nowomp/internal/task"
)

// TaskProc is the per-process handle passed to task bodies: a Proc
// (shared memory, clock, compute charging) plus the task scheduling
// operations. Its ID and N track the current team across adaptations,
// so — unlike in a loop construct — they may change between two reads
// within one task region.
type TaskProc struct {
	*Proc
	w *task.Worker
}

// Spawn queues body as a child task of the currently executing task.
// The child may run on any team process; it must synchronise with its
// siblings only through TaskWait (or the region end) plus shared
// memory, like an OpenMP untied task.
func (tp *TaskProc) Spawn(body func(p *TaskProc)) {
	tp.w.Spawn(func(w *task.Worker) { body(w.Data.(*TaskProc)) })
}

// TaskWait blocks until every direct child spawned by the current task
// has completed, executing queued tasks while it waits. On return the
// children's shared-memory writes are visible to this process.
func (tp *TaskProc) TaskWait() { tp.w.TaskWait() }

// TaskStats reports the scheduling activity of one task region.
type TaskStats = task.Stats

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
	procs := rt.fork(name)
	cur := procs

	var hooks *task.AdaptHooks
	if rt.mgr != nil {
		eligible := func(stackless func(dsm.HostID) bool) func(adapt.Event) bool {
			return func(e adapt.Event) bool {
				return e.Kind != adapt.KindLeave || stackless(e.Host)
			}
		}
		hooks = &task.AdaptHooks{
			Eligible: func(now simtime.Seconds, stackless func(dsm.HostID) bool) bool {
				if rt.mgr.PendingCount() == 0 {
					return false
				}
				return rt.mgr.HasEligible(rt.cluster, rt.team, now, eligible(stackless))
			},
			Apply: func(now simtime.Seconds, stackless func(dsm.HostID) bool) ([]dsm.HostID, simtime.Seconds, bool) {
				// fork() has already counted this construct, so its
				// ordinal is forks-1 — what a fork-boundary adaptation
				// of this construct would have logged.
				elapsed, applied := rt.adapt(now, rt.forks-1, eligible(stackless))
				return rt.team, elapsed, applied
			},
			Rebound: func(ws []*task.Worker) {
				cur = make([]*Proc, len(ws))
				for i, w := range ws {
					if tp, ok := w.Data.(*TaskProc); ok {
						tp.ID, tp.N = i, len(ws)
						cur[i] = tp.Proc
						continue
					}
					p := &Proc{ID: i, N: len(ws), rt: rt, host: w.Host(), clk: w.Clock()}
					w.Data = &TaskProc{Proc: p, w: w}
					cur[i] = p
				}
			},
		}
	}

	r := task.NewRunner(task.Config{Cluster: rt.cluster, Hooks: hooks})
	for _, p := range procs {
		w := r.AddWorker(p.host, p.clk)
		w.Data = &TaskProc{Proc: p, w: w}
	}
	stats := r.Run(func(w *task.Worker) { root(w.Data.(*TaskProc)) })
	rt.join(cur)
	return stats
}
