// Package omp is the OpenMP-style execution runtime of the adaptive
// system: the execution model of section 2 of Scherer et al. (PPoPP
// 1999), extended with OpenMP 3.0-style tasking. A master process
// executes sequential code; each parallel construct forks a team of
// processes, runs its body, and joins at a barrier. Because every
// construct recomputes its work assignment from (process id, team
// size) or shared scheduling state at the fork — exactly what the
// SUIF-generated TreadMarks code does — the runtime can change the
// team between any two constructs, which is what makes adaptation
// transparent (section 3).
//
// Two construct families share that fork/join skeleton:
//
//   - Loops: Runtime.For runs an iteration space under a Static,
//     StaticChunk, Dynamic or Guided schedule (WithSchedule), with
//     optional deterministic reductions (WithReduce). The fork
//     boundary is the adaptation point.
//
//   - Tasks: Runtime.Tasks runs a work-stealing task region for
//     irregular, recursive parallelism, extending the paper's
//     transparency argument from loops to recursive parallelism.
//     Bodies receive a TaskProc and call Spawn and TaskWait; idle
//     processes steal, with closure shipping and release/acquire
//     consistency priced through the simulated fabric (see "Task
//     execution model" below). Every task scheduling point — spawn,
//     taskwait, steal, completion — is an adaptation point, so
//     join/leave events apply mid-region and deques re-home onto the
//     new team.
//
// The API mirrors the *output* of the paper's OpenMP-to-TreadMarks
// compiler rather than pragma syntax: For's body receives
// (proc, lo, hi) just as the encapsulated loop procedure receives the
// TreadMarks process id and computes its iteration range, and a task
// body receives the TaskProc of whichever process ended up executing
// it.
//
// # Task execution model
//
// Each process of a forked team owns a double-ended queue of tasks.
// A running task spawns subtasks onto its own deque (TaskProc.Spawn)
// and waits for its direct children (TaskProc.TaskWait), popping
// further work from the bottom of its own deque while it waits. An
// idle process steals the oldest task from the top of the richest
// other deque — the classic work-first discipline: local pops are LIFO
// for locality, steals are FIFO so a thief takes the biggest remaining
// subtree. A TaskProc is the one record of a task-region process: its
// embedded Proc carries the process id (also its engine tie-break),
// host and clock, and the TaskProc adds the deque and park state.
//
// # Pricing: steals on a DSM are not free
//
// A steal is a request/response exchange on the simulated fabric plus
// the closure shipping (ClosureBytes), and — because the thief must
// observe every shared-memory write that happened before the task
// became stealable — a release/acquire pair on the DSM: the victim's
// open interval is flushed to diffs (dsm.FlushInterval) and the thief
// performs acquire-side consistency (dsm.AcquireInterval). A task that
// completes on a different process than the one waiting for it
// likewise flushes and sends a completion notice. All of it charges
// virtual time and per-link traffic, so the benchmark suite can show
// where tasking beats a Dynamic-schedule loop (skewed work: few steals
// replace thousands of priced counter claims) and where it loses
// (uniform work: the steal consistency traffic buys nothing). Purely
// local execution pays none of this: with one process, or when no
// steal occurs, a task region costs exactly its compute charges plus
// the ordinary fork and join.
//
// # Task scheduling points are adaptation points
//
// Spawn, taskwait, steal and task completion are the runtime's task
// scheduling points. Before dispatching any of them the region drains
// matured join/leave events: every open interval is flushed, the
// adaptation transaction of the adapt package runs (GC, state handoff,
// reassignment), and the deques re-home onto the new team — a
// departing process's queued tasks ship round-robin to the survivors
// (priced as closure traffic), a joining process starts with an empty
// deque and steals its way into the tree. A leave is held back until
// the departing process is *stackless* (parked between tasks with no
// suspended ancestors), the task-level analogue of the paper's rule
// that processes hold no private state at adaptation points; joins
// apply immediately. An irregular computation therefore absorbs team
// resizes mid-tree with no application code.
//
// # Determinism
//
// Task processes are coroutines of the shared discrete-event engine
// (internal/engine). Their goroutines exist only to hold the Go stacks
// of suspended tasks; exactly one runs at a time, and every deque
// action is elected by the engine in ascending virtual-time order
// (ties broken by process slot) via per-process wake conditions that
// encode the schedule. Victim selection, re-homing and completion
// bookkeeping are pure functions of that order, so a task program's
// schedule — and therefore its virtual time, its traffic, and its
// floating-point result — is reproducible run to run on any machine,
// at any GOMAXPROCS. DSM locks acquired inside task bodies park on the
// same engine, so a lock held across a scheduling point serialises the
// contenders (a genuine cycle panics with the engine's deadlock
// diagnostic). Kernel results are asserted bit-identical to their
// sequential references across team sizes and under mid-run join/leave
// events.
package omp
