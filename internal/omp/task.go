package omp

import (
	"fmt"

	"nowomp/internal/dsm"
	"nowomp/internal/engine"
	"nowomp/internal/simtime"
)

// TaskProc is one team process of a task region, and the handle passed
// to task bodies: a Proc (shared memory, clock, compute charging) plus
// the process's deque and the task scheduling operations. Its ID is the
// process's slot in the current team and its engine tie-break; ID and N
// track the team across adaptations, so — unlike in a loop construct —
// they may change between two reads within one task region.
type TaskProc struct {
	*Proc

	r      *taskRegion
	ep     *engine.Proc
	deque  []*task // index 0 = top (steal end), last = bottom (pop end)
	frames []*frame

	// kind is the scheduling point the process is parked at; parkRun
	// while it holds the token.
	kind parkKind
	// retired is set when an adaptation removed the process from the
	// team: it exits at its next turn without acting.
	retired bool
	exited  bool
}

// task is one unit of deferred work on a deque.
type task struct {
	body   func(*TaskProc)
	parent *frame          // frame that spawned it; nil for the root
	home   dsm.HostID      // process that spawned it
	at     simtime.Seconds // instant it became stealable
}

// frame is one task in execution: the join state TaskWait blocks on.
// It lives on its process's goroutine stack for the task's whole
// lifetime, so a frame never moves between processes — which is why a
// leave must wait until the departing process is stackless.
type frame struct {
	owner       *TaskProc
	outstanding int // direct children spawned and not yet completed
	sawRemote   bool
	remoteDone  simtime.Seconds // latest remote-child completion arrival
}

// parkKind classifies the scheduling point a process is parked at. The
// zero value is parkNeed so that a freshly added process — registered
// with the engine but not yet elected for its first turn — already
// counts as stackless for adaptation decisions, exactly as if it had
// reached its top-level loop.
type parkKind int

const (
	// parkNeed: at the top-level loop, between tasks (stackless).
	// Runnable when its deque is non-empty, a steal is available, the
	// region has drained, or the process was retired by an adaptation.
	parkNeed parkKind = iota
	// parkWait: inside TaskWait. Runnable when all children are done or
	// its own deque is non-empty.
	parkWait
	// parkSpawn: a task body called Spawn; the task awaits its deque.
	parkSpawn
	// parkComplete: a task body returned; completion bookkeeping due.
	parkComplete
	// parkResume: bookkeeping done; the process just needs the token
	// back to continue. Kept as a separate scheduling point so that
	// every one, including the continuation after a spawn, is an
	// adaptation point.
	parkResume
	// parkRun: not parked — the process holds the engine token (or is
	// blocked inside a DSM primitive such as a lock acquire, which
	// parks on the engine below this layer).
	parkRun
)

// Spawn queues body as a child task of the currently executing task on
// this process's deque. The child may run on any team process; it must
// synchronise with its siblings only through TaskWait (or the region
// end) plus shared memory, like an OpenMP untied task. The spawn is a
// task scheduling point: pending adapt events drain before execution
// continues, and processes with earlier virtual clocks act between the
// spawn and its continuation.
func (tp *TaskProc) Spawn(body func(p *TaskProc)) {
	if len(tp.frames) == 0 {
		panic("omp: Spawn called outside a task")
	}
	t := &task{body: body, parent: tp.frames[len(tp.frames)-1]}
	tp.pause(parkSpawn, "spawn", nil)
	t.home = tp.host.ID()
	t.at = tp.clk.Now()
	t.parent.outstanding++
	tp.deque = append(tp.deque, t)
	tp.r.live++
	tp.r.stats.Spawned++
	// The new task may satisfy a parked process's steal or pop condition.
	tp.r.wake.Notify()
	tp.pause(parkResume, "resume after spawn", nil)
}

// TaskWait blocks until every direct child task of the currently
// executing task has completed, executing tasks from this process's own
// deque while it waits. If any awaited child ran on another process,
// the wait ends with an acquire so the children's shared-memory writes
// are visible — priced like any acquire on the DSM.
func (tp *TaskProc) TaskWait() {
	if len(tp.frames) == 0 {
		panic("omp: TaskWait called outside a task")
	}
	fr := tp.frames[len(tp.frames)-1]
	for {
		tp.pause(parkWait, "taskwait", func() (simtime.Seconds, bool) {
			if fr.outstanding == 0 {
				at := tp.clk.Now()
				if fr.remoteDone > at {
					at = fr.remoteDone
				}
				return at, true
			}
			if len(tp.deque) > 0 {
				return tp.clk.Now(), true
			}
			return 0, false
		})
		if fr.outstanding == 0 {
			tp.clk.AdvanceTo(fr.remoteDone)
			if fr.sawRemote {
				tp.rt.cluster.AcquireInterval(tp.host, tp.clk)
				fr.sawRemote = false
			}
			fr.remoteDone = 0
			return
		}
		tp.exec(tp.r.popOwn(tp))
	}
}

// The bookkeeping scheduling points (spawn, completion, resume) park
// with a nil wake condition — always runnable, at the process's own
// clock — which the engine resolves without calling a closure.

// needReady is the wake condition of the top-level loop: the process
// can act when it has (or can steal) a task, and must wake to exit
// when it was retired or the region has drained.
func (tp *TaskProc) needReady() (simtime.Seconds, bool) {
	if tp.retired {
		return tp.clk.Now(), true
	}
	r := tp.r
	if len(tp.deque) > 0 {
		return tp.clk.Now(), true
	}
	if v := r.victim(tp); v != nil {
		at := tp.clk.Now()
		if t := v.deque[0]; t.at > at {
			at = t.at
		}
		return at, true
	}
	if r.live == 0 && r.allAtTop() {
		return tp.clk.Now(), true
	}
	return 0, false
}

// pause parks the process at one scheduling point and returns once the
// engine elects it with the wake condition satisfied. Matured adapt
// events drain before it returns (every scheduling point is an
// adaptation point); after an applied adaptation the process re-parks
// so the whole schedule is re-evaluated against the new team. A leave
// can never retire a process parked here: these are mid-task points, so
// the process is not stackless.
func (tp *TaskProc) pause(kind parkKind, reason string, ready func() (simtime.Seconds, bool)) {
	for {
		tp.kind = kind
		at := tp.ep.ParkOn(&tp.r.wake, reason, ready)
		if !tp.r.maybeAdapt(at) {
			tp.kind = parkRun
			return
		}
	}
}

// run is the process's coroutine: the top-level scheduling loop. The
// region-drained exit bypasses the adaptation check — the region is
// over, and remaining events drain at the next fork boundary, exactly
// as the pre-engine dispatcher behaved.
func (tp *TaskProc) run() {
	r := tp.r
	for {
		tp.kind = parkNeed
		// Reaching the top level may complete the region's quiescent
		// state (every process stackless): wake the others to check.
		r.wake.Notify()
		at := tp.ep.ParkOn(&r.wake, "task work", tp.needReady)
		if tp.retired || (r.live == 0 && r.allAtTop()) {
			tp.exited = true
			r.wake.Notify()
			return
		}
		if r.maybeAdapt(at) {
			continue // team changed: re-evaluate from the same point
		}
		tp.kind = parkRun
		if len(tp.deque) > 0 {
			tp.exec(r.popOwn(tp))
			continue
		}
		v := r.victim(tp)
		if v == nil {
			panic("omp: dispatched an idle task process with nothing to steal")
		}
		tp.exec(r.steal(tp, v))
	}
}

// exec runs one task body to completion (the body may nest further
// pops via TaskWait), then passes the completion scheduling point and
// records the completion.
func (tp *TaskProc) exec(t *task) {
	tp.frames = append(tp.frames, &frame{owner: tp})
	t.body(tp)
	// No implicit wait on children: like an OpenMP task, completion
	// does not imply its children completed (the region end does).
	tp.frames = tp.frames[:len(tp.frames)-1]
	tp.pause(parkComplete, "completion", nil)
	tp.r.complete(tp, t)
	tp.pause(parkResume, "resume after completion", nil)
}

// stackless reports whether the process holds no task state: parked at
// the top level between tasks. Only then may its host leave the team.
func (tp *TaskProc) stackless() bool {
	return !tp.exited && len(tp.frames) == 0 && tp.kind == parkNeed
}

// name is the process's engine proc name, the one the deadlock
// diagnostic prints.
func (tp *TaskProc) name() string {
	return fmt.Sprintf("worker(slot %d, host %d)", tp.ID, tp.host.ID())
}
