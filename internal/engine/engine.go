// Package engine implements the deterministic discrete-event
// scheduler at the heart of the simulated NOW runtime. Every simulated
// process — an OpenMP team process running a parallel construct, a
// task-region worker, a lock requester — runs on a runtime coroutine
// (iter.Pull): Run resumes the elected proc with next, a parking proc
// hands the token back with yield, and each is one coroswitch on the
// calling thread — no run queue, no wakeup of an idle P, no futex.
// Exactly one coroutine runs at any instant; when it parks or exits,
// the engine wakes the runnable (parked, wake-condition satisfied)
// proc with the lowest virtual time, breaking ties by proc id (the
// host id for team processes, the team slot for task workers) and
// then by registration order.
//
// The wake rule is the standard conservative discrete-event argument:
// the proc with the minimum virtual time can never be invalidated by
// an event from another proc (their clocks only move forward), so
// running it first is always safe and the system always makes
// progress. The consequence the runtime is built on: no simulated
// outcome — times, traffic, lock grant order — can depend on the Go
// scheduler, GOMAXPROCS or real-time interleaving, because the Go
// scheduler never gets to choose between two runnable simulated
// processes.
//
// # Dispatch is indexed, not scanned
//
// Elections pop a binary min-heap keyed by (wake instant, id,
// registration order) instead of re-evaluating every proc's wake
// condition per dispatch. A proc enters the heap when its condition
// first reports ready and stays there with that key until dispatched.
// Two rules keep the heap truthful without global re-scans:
//
//   - Wait lists. A proc whose condition depends on a shared resource
//     parks on that resource's WaitList (lock queues, the task
//     region's scheduler state). Code that mutates the resource calls
//     Notify, which marks the listed procs for re-evaluation before
//     the next election. A notification is required whenever a
//     mutation can turn a parked proc's condition true or move its
//     wake instant earlier; spurious notifications are always safe.
//   - Pop revalidation. The heap top's condition is re-evaluated at
//     election: a condition that went false drops out of the heap
//     (the resource was consumed by a later grant), a wake instant
//     that drifted later (a parked clock advanced) re-sorts. This
//     covers every condition that can only be *invalidated* or
//     *delayed* by other procs' actions, with no notification needed.
//
// The common "park then immediately re-elect the same proc" case — an
// uncontended lock claim in a dynamic loop, say — short-circuits in
// ParkOn: if the parking proc's condition already holds and no heap
// entry precedes its key, it keeps the token with no coroutine
// switch and no election. This is exact, not heuristic: the
// outcome equals the full election's (asserted by a property test
// against a reference linear-scan implementation).
//
// If every live proc is parked and none can wake, the simulation
// cannot progress: the engine panics with a diagnostic naming each
// parked proc, its virtual clock and the reason it is waiting (the
// deadlock analogue of a hung pthread program, made loud and
// reproducible). A missed Notify surfaces the same way — loudly — and
// never as a silently different schedule.
//
// A panic — a proc's own, re-thrown by Run, or the deadlock
// diagnostic — abandons the engine: before Run panics it stops every
// live proc's coroutine, so each parked proc unwinds from its park
// (deferred calls run, one proc at a time), its goroutine exits and
// what its closures capture becomes garbage. An embedder that recovers
// the panic must treat the runtime as dead, but it leaks nothing.
package engine

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
	"strings"
	"sync"

	"nowomp/internal/simtime"
)

// WakeFunc reports whether a parked proc may resume and, if so, the
// virtual instant its pending action fires at (a lock request's
// request time, a steal's availability time, ...). It is evaluated by
// the engine while no other proc mutates shared state, so it may
// freely read state shared with other procs; it must not mutate
// anything. A nil WakeFunc means "always ready at the proc's own
// clock".
type WakeFunc func() (at simtime.Seconds, ok bool)

// Engine is one deterministic scheduler instance, driving the procs of
// one parallel construct or task region. It is single-use: create,
// register procs with Go, then Run until every proc has exited.
type Engine struct {
	procs   []*Proc
	running *Proc
	live    int
	// failure is the wrapped panic of a proc that died, for Run to
	// re-throw.
	failure string

	// heap holds the ready procs, a binary min-heap on
	// (key, id, order).
	heap []*Proc
	// recheck holds the procs flagged for re-evaluation (notified or
	// freshly parked), deduplicated by Proc.flagged.
	recheck []*Proc
}

// errAbandoned unwinds a parked proc of an abandoned engine; Proc.run
// swallows it.
var errAbandoned = errors.New("engine: abandoned after a panic")

// coroutine is an iter.Pull coroutine that runs one proc body after
// another: next resumes it until the proc it carries parks or exits;
// yield is that proc's side of the switch and reports false once stop
// has abandoned the coroutine. Between procs it waits on the idle
// list — process-wide, since every construct forks a fresh engine, and
// never longer than the most procs ever live at once. Reuse saves a
// goroutine creation per proc and, under go1.24's race detector, the
// race context that every finished coroutine leaks. The runtime insists
// that a coroutine is resumed under the thread-lock state it was
// created under, so engines must not be driven both from goroutines
// that hold runtime.LockOSThread and from goroutines that do not.
type coroutine struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc
}

var idle struct {
	sync.Mutex
	cos []*coroutine
}

// carry returns a coroutine, idle or new, that runs p's body next.
func carry(p *Proc) *coroutine {
	var co *coroutine
	idle.Lock()
	if n := len(idle.cos); n > 0 {
		co, idle.cos = idle.cos[n-1], idle.cos[:n-1]
	}
	idle.Unlock()
	if co == nil {
		co = new(coroutine)
		co.next, co.stop = iter.Pull(func(yield func(struct{}) bool) {
			co.yield = yield
			for {
				co.p.run()
				// Idle from here: let go of the proc, and with it the
				// engine, the bodies' closures and the cluster they hold.
				co.p = nil
				if !yield(struct{}{}) {
					return
				}
			}
		})
	}
	co.p = p
	return co
}

// run executes the proc's body and records how it ended.
func (p *Proc) run() {
	defer func() {
		// An abandoned proc (done before its body returned) unwinds on
		// errAbandoned; whatever it throws, the engine has its failure.
		if v := recover(); v != nil && !p.done {
			p.e.failure = fmt.Sprintf("engine: %s panicked: %v\n%s", p.name, v, debug.Stack())
		}
	}()
	p.fn(p)
}

// Proc is one simulated process registered with an engine.
type Proc struct {
	e     *Engine
	name  string
	id    int
	order int
	clk   *simtime.Clock
	fn    func(*Proc)
	co    *coroutine

	parked bool
	done   bool // fn returned and Run took note, or abandoned
	reason string
	wake   WakeFunc
	wokeAt simtime.Seconds

	// key is the wake instant this proc is heaped under while ready.
	key simtime.Seconds
	// heapIdx / listIdx are the proc's positions in the engine's ready
	// heap and its wait list; -1 when absent.
	heapIdx int
	list    *WaitList
	listIdx int
	flagged bool
}

// WaitList is the set of procs parked on one resource (a lock's
// waiters, a task region's idle workers). Code that mutates the
// resource calls Notify so the engine re-evaluates exactly those
// procs. The zero value is ready to use; a list may outlive the
// engines its procs parked on (a cluster-lifetime lock parking procs
// of successive constructs), because it holds only currently parked
// procs.
type WaitList struct {
	procs []*Proc
}

// Notify marks every proc parked on the list for re-evaluation before
// the next election. It must be called after any mutation that can
// turn a listed proc's wake condition true or move its wake instant
// earlier; a spurious call is harmless. Conditions that can only go
// false or move later need no notification — the election revalidates
// the heap top.
func (wl *WaitList) Notify() {
	for _, p := range wl.procs {
		p.e.flag(p)
	}
}

func (wl *WaitList) remove(p *Proc) {
	i := p.listIdx
	last := len(wl.procs) - 1
	wl.procs[i] = wl.procs[last]
	wl.procs[i].listIdx = i
	wl.procs[last] = nil
	wl.procs = wl.procs[:last]
	p.list = nil
	p.listIdx = -1
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{}
}

// Go registers a proc on a coroutine. The proc begins parked ("start")
// on the ready heap, runnable at its clock's current instant, and
// first executes when the engine elects it; fn runs entirely under the
// engine's token. Go may be called before Run or by the currently
// running proc (a task region adding workers for a joined host).
func (e *Engine) Go(name string, id int, clk *simtime.Clock, fn func(*Proc)) *Proc {
	p := &Proc{
		e:       e,
		name:    name,
		id:      id,
		order:   len(e.procs),
		clk:     clk,
		fn:      fn,
		parked:  true,
		reason:  "start",
		heapIdx: -1,
		listIdx: -1,
	}
	p.co = carry(p)
	e.procs = append(e.procs, p)
	e.live++
	e.heapPush(p, clk.Now())
	return p
}

// Run drives the procs to completion: it repeatedly elects the
// runnable proc with the lowest (virtual time, id) and hands it the
// token until every proc has exited. The calling goroutine is the
// scheduler; it must not be one of this engine's procs (a proc of
// another engine may drive it: coroutines nest). A panic in a proc is
// re-thrown here with the proc's original stack attached.
func (e *Engine) Run() {
	for e.live > 0 {
		p := e.elect()
		if p == nil {
			msg := e.deadlockMessage()
			e.abandon()
			panic(msg)
		}
		e.dispatch(p)
		p.co.next()
		e.running = nil
		if p.co.p == p {
			continue // parked: on its wait list, flagged for evaluation
		}
		p.done = true
		e.live--
		idle.Lock()
		idle.cos = append(idle.cos, p.co)
		idle.Unlock()
		if e.failure != "" {
			e.abandon()
			panic(e.failure)
		}
	}
}

// abandon releases the procs of an engine that is about to panic:
// stopping a live proc's coroutine unwinds a parked proc from its park
// and discards one that never started.
func (e *Engine) abandon() {
	for _, p := range e.procs {
		if !p.done {
			p.done = true
			p.co.stop()
		}
	}
}

// elect picks the runnable proc with the minimal (wake instant, id,
// registration order): pending notifications are applied, then the
// heap top is revalidated until it is truthful.
func (e *Engine) elect() *Proc {
	e.drain()
	for len(e.heap) > 0 {
		p := e.heap[0]
		at, ok := p.evalWake()
		if !ok {
			e.heapDelete(p)
			continue
		}
		if at != p.key {
			e.heapFix(p, at)
			continue
		}
		return p
	}
	return nil
}

// dispatch removes an elected proc from every ready/wait structure and
// hands it the token.
func (e *Engine) dispatch(p *Proc) {
	e.heapDelete(p)
	if p.list != nil {
		p.list.remove(p)
	}
	p.parked = false
	p.wokeAt = p.key
	e.running = p
}

// flag queues a parked proc for re-evaluation before the next
// election, deduplicating repeat flags.
func (e *Engine) flag(p *Proc) {
	if p.flagged || p.done || !p.parked {
		return
	}
	p.flagged = true
	e.recheck = append(e.recheck, p)
}

// drain applies the queued re-evaluations: each flagged proc's wake
// condition decides whether it enters, moves within, or leaves the
// ready heap.
func (e *Engine) drain() {
	for len(e.recheck) > 0 {
		p := e.recheck[len(e.recheck)-1]
		e.recheck = e.recheck[:len(e.recheck)-1]
		p.flagged = false
		if p.done || !p.parked {
			continue
		}
		if at, ok := p.evalWake(); ok {
			if p.heapIdx >= 0 {
				if at != p.key {
					e.heapFix(p, at)
				}
			} else {
				e.heapPush(p, at)
			}
		} else if p.heapIdx >= 0 {
			e.heapDelete(p)
		}
	}
}

func (p *Proc) evalWake() (simtime.Seconds, bool) {
	if p.wake == nil {
		return p.clk.Now(), true
	}
	return p.wake()
}

// deadlockMessage names every parked proc, its clock and its wait
// reason: the diagnostic for a simulation that cannot progress.
func (e *Engine) deadlockMessage() string {
	var b strings.Builder
	b.WriteString("engine: deadlock: every proc is parked and none can wake")
	for _, p := range e.procs {
		if p.done {
			continue
		}
		fmt.Fprintf(&b, "\n  %s (id %d, clock %v) waiting on %s", p.name, p.id, p.clk.Now(), p.reason)
	}
	return b.String()
}

// Running returns the proc currently holding the token, or nil when
// the engine is between dispatches (or not running at all). Blocking
// primitives use it to discover the proc that must park: in the
// serialised engine, the caller of any runtime operation is exactly
// the running proc.
func (e *Engine) Running() *Proc { return e.running }

// ParkOn blocks the calling proc until wake reports ready and the
// engine elects it, and returns the instant the wake fired at. reason
// is the wait description shown by the deadlock diagnostic. A nil wake
// means "ready at the proc's own clock". The proc registers on wl, the
// wait list of the resource its condition depends on, and the
// condition is re-evaluated only when the list is notified (or when
// its heap entry is revalidated at an election). Every mutation that
// can make the condition true or move its instant earlier must Notify
// the list, or the engine may (loudly) report a deadlock.
func (p *Proc) ParkOn(wl *WaitList, reason string, wake WakeFunc) simtime.Seconds {
	e := p.e
	p.reason = reason
	p.wake = wake
	// Fast path: the parking proc's condition already holds and no
	// ready proc precedes it, so the election it is about to trigger
	// would hand the token straight back. Keep the token: no coroutine
	// switch. Run is suspended inside next throughout, so mutating the
	// ready structures from here is the same single thread of control.
	if e.running == p {
		if at, ok := p.evalWake(); ok {
			e.drain()
			if !e.topBeats(at, p) {
				p.wokeAt = at
				return at
			}
		}
	}
	p.parked = true
	p.list, p.listIdx = wl, len(wl.procs)
	wl.procs = append(wl.procs, p)
	e.flag(p)
	if !p.co.yield(struct{}{}) {
		// Abandoned, here or (a deferred call parking while its proc
		// unwinds) before it got here: leave the list, which may
		// outlive the engine, and unwind.
		wl.remove(p)
		panic(errAbandoned)
	}
	return p.wokeAt
}

// topBeats reports whether the ready heap holds a proc that precedes
// (at, p.id, p.order) — i.e. whether an election now could elect
// someone other than p. The top's key may be stale; that can only
// cause a needless full election, never a wrong fast-path grant,
// because stale keys are either too small (the proc re-sorts later)
// or belong to conditions that went false (the proc drops out).
func (e *Engine) topBeats(at simtime.Seconds, p *Proc) bool {
	if len(e.heap) == 0 {
		return false
	}
	q := e.heap[0]
	return before(q.key, q.id, q.order, at, p.id, p.order)
}

// SetID replaces the proc's tiebreak id. The task runtime uses it when
// an adaptation reassigns team slots. Only the running proc (or the
// scheduler between dispatches) may call it.
func (p *Proc) SetID(id int) {
	p.id = id
	if p.heapIdx >= 0 {
		// The id is part of the heap key: re-insert under the new one.
		p.e.heapDelete(p)
		p.e.flag(p)
	}
}

// before orders two election keys: (wake instant, id, registration
// order).
func before(ka simtime.Seconds, ida, oa int, kb simtime.Seconds, idb, ob int) bool {
	if ka != kb {
		return ka < kb
	}
	if ida != idb {
		return ida < idb
	}
	return oa < ob
}

func (e *Engine) heapLess(a, b *Proc) bool {
	return before(a.key, a.id, a.order, b.key, b.id, b.order)
}

func (e *Engine) heapPush(p *Proc, key simtime.Seconds) {
	p.key = key
	p.heapIdx = len(e.heap)
	e.heap = append(e.heap, p)
	e.siftUp(p.heapIdx)
}

func (e *Engine) heapDelete(p *Proc) {
	i := p.heapIdx
	last := len(e.heap) - 1
	e.heap[i] = e.heap[last]
	e.heap[i].heapIdx = i
	e.heap[last] = nil
	e.heap = e.heap[:last]
	p.heapIdx = -1
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

func (e *Engine) heapFix(p *Proc, key simtime.Seconds) {
	p.key = key
	e.siftDown(p.heapIdx)
	e.siftUp(p.heapIdx)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(e.heap[i], e.heap[parent]) {
			return
		}
		e.heapSwap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		small := i
		if l := 2*i + 1; l < n && e.heapLess(e.heap[l], e.heap[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && e.heapLess(e.heap[r], e.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		e.heapSwap(i, small)
		i = small
	}
}

func (e *Engine) heapSwap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.heap[i].heapIdx = i
	e.heap[j].heapIdx = j
}
