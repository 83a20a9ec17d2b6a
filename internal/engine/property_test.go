package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"nowomp/internal/simtime"
)

// The property test pins the heap/wait-list dispatcher to the engine's
// specified semantics with an independent oracle: a randomized program
// of computes, semaphore waits, signals, bare yields and waits on gates
// that other procs push later is executed once on the real engine and
// once on a reference simulator that re-implements the election as the
// naive linear scan the engine used to perform — re-evaluate every
// parked proc's condition at every dispatch, pick the minimum (wake
// instant, id, registration order). The two dispatch logs must match event for event, which covers the
// indexed heap, the notification plumbing and the park fast path at
// once (a fast-path grant that differs from a full election, a missed
// notification, or a stale heap key all reorder the log). The gates are
// there for the re-sort: a proc parked on a gate sits in the heap under
// the instant the gate stood at when it parked, and a raise moves its
// true wake instant later — silently, which the election must catch when
// the stale key reaches the top, or with a Notify, which drain must
// re-key in place.

// step is one instruction of a generated program.
type step struct {
	kind  stepKind
	delta simtime.Seconds // compute: clock advance; raise: how much later the gate opens
	res   int             // wait/signal: semaphore index; gate steps: gate index
}

type stepKind int

const (
	stepCompute     stepKind = iota
	stepWait                 // park until sem[res] > 0, then consume one unit
	stepSignal               // sem[res]++
	stepPoll                 // yield: park on a list nobody notifies, ready at own clock
	stepGate                 // park until gate[res] opens (at once if it has), then move the clock there
	stepRaise                // gate[res] opens delta later; its waiters are told nothing
	stepRaiseNotify          // the same, and the gate's wait list is notified
)

// genProgram builds one randomized program for n procs over k
// semaphores and k gates. Signals are generated in surplus and each
// semaphore gets a final top-up from the last proc, so most programs
// complete; the rest (the last proc stranded on a wait before its top-ups) are
// detected by the reference simulator and skipped.
func genProgram(r *rand.Rand, n, k, steps int) [][]step {
	prog := make([][]step, n)
	for p := 0; p < n; p++ {
		for s := 0; s < steps; s++ {
			switch r.Intn(9) {
			case 0, 1:
				// Multiples of 0.25 keep virtual-time arithmetic exact,
				// so log comparison is not at the mercy of float error.
				prog[p] = append(prog[p], step{kind: stepCompute, delta: simtime.Seconds(r.Intn(8)) * 0.25})
			case 2:
				prog[p] = append(prog[p], step{kind: stepWait, res: r.Intn(k)})
			case 3, 4:
				prog[p] = append(prog[p], step{kind: stepSignal, res: r.Intn(k)})
			case 5:
				prog[p] = append(prog[p], step{kind: stepPoll})
			case 6:
				prog[p] = append(prog[p], step{kind: stepGate, res: r.Intn(k)})
			case 7, 8:
				prog[p] = append(prog[p], step{kind: stepRaise + stepKind(r.Intn(2)), delta: simtime.Seconds(1+r.Intn(8)) * 0.25, res: r.Intn(k)})
			}
		}
	}
	// Top up every semaphore once per generated wait, after everything
	// else, from the highest-order proc: enough for every waiter to
	// drain even in the worst interleaving.
	waits := 0
	for p := range prog {
		for _, st := range prog[p] {
			if st.kind == stepWait {
				waits++
			}
		}
	}
	last := n - 1
	for i := 0; i < waits; i++ {
		for res := 0; res < k; res++ {
			prog[last] = append(prog[last], step{kind: stepSignal, res: res})
		}
	}
	return prog
}

// dispatchLog is one resume event as observed by a proc.
type dispatchLog struct {
	proc int
	at   simtime.Seconds
}

// runEngine executes the program on the real engine, semaphores backed
// by wait lists, and returns the dispatch log.
func runEngine(prog [][]step, k int) []dispatchLog {
	e := New()
	sems := make([]int, k)
	wls := make([]WaitList, k)
	gates := make([]simtime.Seconds, k)
	gwls := make([]WaitList, k)
	var idle WaitList // never notified: a poll re-enters by revalidation alone
	var log []dispatchLog
	for p := range prog {
		p := p
		clk := simtime.NewClock(0)
		e.Go(fmt.Sprintf("p%d", p), p, clk, func(ep *Proc) {
			log = append(log, dispatchLog{p, clk.Now()})
			for _, st := range prog[p] {
				switch st.kind {
				case stepCompute:
					clk.Advance(st.delta)
				case stepWait:
					res := st.res
					at := clk.Now()
					ep.ParkOn(&wls[res], "sem", func() (simtime.Seconds, bool) {
						if sems[res] == 0 {
							return 0, false
						}
						return at, true
					})
					sems[res]--
					log = append(log, dispatchLog{p, clk.Now()})
				case stepSignal:
					sems[st.res]++
					wls[st.res].Notify()
				case stepPoll:
					ep.ParkOn(&idle, "poll", nil)
					log = append(log, dispatchLog{p, clk.Now()})
				case stepGate:
					res := st.res
					at := clk.Now()
					ep.ParkOn(&gwls[res], "gate", func() (simtime.Seconds, bool) {
						return max(at, gates[res]), true
					})
					clk.AdvanceTo(gates[res])
					log = append(log, dispatchLog{p, clk.Now()})
				case stepRaise, stepRaiseNotify:
					gates[st.res] += st.delta
					if st.kind == stepRaiseNotify {
						gwls[st.res].Notify()
					}
				}
			}
		})
	}
	e.Run()
	return log
}

// refProc is one proc of the reference simulator.
type refProc struct {
	id, order int
	ip        int // next step index
	clk       simtime.Seconds
	parked    bool
	waitRes   int // semaphore index while parked on a wait; -1 for poll
	gate      int // gate index while parked on a gate; -1 otherwise
	waitAt    simtime.Seconds
	done      bool
}

// runReference executes the program on the linear-scan reference
// scheduler and returns the dispatch log. Returns ok=false if the
// program deadlocks (the engine would panic; the generator should
// prevent this).
func runReference(prog [][]step, k int) (log []dispatchLog, ok bool) {
	sems := make([]int, k)
	gates := make([]simtime.Seconds, k)
	procs := make([]*refProc, len(prog))
	for p := range prog {
		// Mirrors Go: every proc starts parked, ready at its own clock.
		procs[p] = &refProc{id: p, order: p, parked: true, waitRes: -1, gate: -1}
	}
	live := len(procs)
	for live > 0 {
		// The naive election: evaluate every parked proc, take the
		// minimum (wake instant, id, registration order).
		var best *refProc
		var bestAt simtime.Seconds
		for _, rp := range procs {
			if rp.done || !rp.parked {
				continue
			}
			at := rp.waitAt
			switch {
			case rp.waitRes >= 0:
				if sems[rp.waitRes] == 0 {
					continue
				}
			case rp.gate >= 0:
				at = max(at, gates[rp.gate]) // wherever the gate stands now
			default:
				at = rp.clk
			}
			if best == nil || at < bestAt ||
				(at == bestAt && (rp.id < best.id || (rp.id == best.id && rp.order < best.order))) {
				best, bestAt = rp, at
			}
		}
		if best == nil {
			return log, false
		}
		best.parked = false
		if best.waitRes >= 0 {
			sems[best.waitRes]--
		}
		best.waitRes = -1
		if best.gate >= 0 {
			best.clk = max(best.clk, gates[best.gate])
			best.gate = -1
		}
		log = append(log, dispatchLog{best.id, best.clk})
		// Run the proc to its next park or exit.
		for !best.parked && !best.done {
			if best.ip >= len(prog[best.id]) {
				best.done = true
				live--
				break
			}
			st := prog[best.id][best.ip]
			best.ip++
			switch st.kind {
			case stepCompute:
				best.clk += st.delta
			case stepWait:
				best.parked = true
				best.waitRes = st.res
				best.waitAt = best.clk
			case stepSignal:
				sems[st.res]++
			case stepPoll:
				best.parked = true
				best.waitRes = -1
			case stepGate:
				best.parked = true
				best.gate = st.res
				best.waitAt = best.clk
			case stepRaise, stepRaiseNotify:
				gates[st.res] += st.delta
			}
		}
	}
	return log, true
}

func TestElectionMatchesLinearScanReference(t *testing.T) {
	r := rand.New(rand.NewSource(1999))
	valid := 0
	for trial := 0; trial < 400 && valid < 200; trial++ {
		n := 2 + r.Intn(5)
		k := 1 + r.Intn(3)
		prog := genProgram(r, n, k, 5+r.Intn(25))
		want, ok := runReference(prog, k)
		if !ok {
			continue // deadlocking program: the engine would panic too
		}
		valid++
		got := runEngine(prog, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d dispatches, reference %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: dispatch %d = proc %d at %v, reference proc %d at %v",
					trial, i, got[i].proc, got[i].at, want[i].proc, want[i].at)
			}
		}
	}
	if valid < 200 {
		t.Fatalf("only %d deadlock-free programs in 400 trials; generator too strand-prone", valid)
	}
}

// BenchmarkDispatchPingPong measures the full park/elect/resume round
// trip (see pingPong).
func BenchmarkDispatchPingPong(b *testing.B) {
	e := New()
	pingPong(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkDispatchFastPath measures the uncontended repeated park of
// a single running proc — the dynamic-loop chunk-claim pattern — which
// the engine resolves in place with no coroutine switch.
func BenchmarkDispatchFastPath(b *testing.B) {
	e := New()
	var wl WaitList
	clk := simtime.NewClock(0)
	rounds := b.N
	e.Go("solo", 0, clk, func(ep *Proc) {
		b.ResetTimer()
		for i := 0; i < rounds; i++ {
			ep.ParkOn(&wl, "claim", nil)
		}
	})
	b.ReportAllocs()
	e.Run()
}
