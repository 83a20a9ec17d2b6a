package engine

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"weak"

	"nowomp/internal/simtime"
)

// never is the wake condition of a proc nobody will ever release.
func never() (simtime.Seconds, bool) { return 0, false }

// TestWakeOrderLowestVirtualTime: procs are elected strictly by their
// wake instant, regardless of registration order.
func TestWakeOrderLowestVirtualTime(t *testing.T) {
	e := New()
	var order []int
	for _, p := range []struct {
		id int
		at simtime.Seconds
	}{{0, 3.0}, {1, 1.0}, {2, 2.0}} {
		p := p
		e.Go("p", p.id, simtime.NewClock(p.at), func(*Proc) {
			order = append(order, p.id)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("execution order = %v, want [1 2 0] (ascending virtual time)", order)
	}
}

// TestWakeOrderTiebreakByID: equal wake instants break by proc id, not
// registration order.
func TestWakeOrderTiebreakByID(t *testing.T) {
	e := New()
	var order []int
	for _, id := range []int{2, 0, 1} { // registered out of id order
		id := id
		e.Go("p", id, simtime.NewClock(7.0), func(*Proc) {
			order = append(order, id)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("execution order = %v, want [0 1 2] (id tiebreak)", order)
	}
}

// TestParkWakesInVirtualTimeOrder: a parked proc resumes only when its
// wake condition holds and it has the minimal (instant, id) key; the
// wake instant is returned by ParkOn.
func TestParkWakesInVirtualTimeOrder(t *testing.T) {
	e := New()
	var order []string
	var token, turn WaitList
	ready := false
	clkA := simtime.NewClock(0)
	e.Go("a", 0, clkA, func(p *Proc) {
		at := p.ParkOn(&token, "token from b", func() (simtime.Seconds, bool) {
			if !ready {
				return 0, false
			}
			return 4.0, true
		})
		if at != 4.0 {
			t.Errorf("ParkOn returned %v, want 4.0", at)
		}
		order = append(order, "a")
	})
	clkB := simtime.NewClock(2.0)
	e.Go("b", 1, clkB, func(p *Proc) {
		ready = true
		token.Notify()
		clkB.AdvanceTo(9.0)
		// After b parks again at 9.0, a (ready at 4.0) must run first.
		p.ParkOn(&turn, "later turn", func() (simtime.Seconds, bool) { return clkB.Now(), true })
		order = append(order, "b")
	})
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("wake order = %v, want [a b]", order)
	}
}

// TestDeadlockPanicsNamingProcs: if every proc is parked and none can
// wake, Run panics with a diagnostic naming the parked procs and their
// wait reasons.
func TestDeadlockPanicsNamingProcs(t *testing.T) {
	e := New()
	var wl WaitList
	e.Go("reader", 0, simtime.NewClock(1.5), func(p *Proc) {
		p.ParkOn(&wl, "lock 7", never)
	})
	e.Go("writer", 1, simtime.NewClock(2.5), func(p *Proc) {
		p.ParkOn(&wl, "barrier arrival", never)
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("deadlocked engine did not panic")
		}
		msg, ok := v.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", v)
		}
		for _, want := range []string{"deadlock", "reader", "lock 7", "writer", "barrier arrival"} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock diagnostic missing %q:\n%s", want, msg)
			}
		}
	}()
	e.Run()
}

// TestProcPanicCarriesOriginalStack: a panic inside a proc is rethrown
// by Run with the proc's name and original message attached.
func TestProcPanicCarriesOriginalStack(t *testing.T) {
	e := New()
	e.Go("exploder", 0, simtime.NewClock(0), func(*Proc) {
		panic("boom at virtual noon")
	})
	defer func() {
		v := recover()
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "exploder") || !strings.Contains(msg, "boom at virtual noon") {
			t.Fatalf("unexpected panic: %v", v)
		}
	}()
	e.Run()
}

// TestGoDuringRun: the running proc may register new procs; they are
// elected by the same (instant, id) rule.
func TestGoDuringRun(t *testing.T) {
	e := New()
	var order []string
	e.Go("root", 0, simtime.NewClock(1.0), func(p *Proc) {
		e.Go("late-early", 1, simtime.NewClock(0.5), func(*Proc) {
			order = append(order, "late-early")
		})
		order = append(order, "root")
	})
	e.Go("sibling", 2, simtime.NewClock(3.0), func(*Proc) {
		order = append(order, "sibling")
	})
	e.Run()
	// late-early's clock (0.5) beats sibling's (3.0) once registered.
	if len(order) != 3 || order[0] != "root" || order[1] != "late-early" || order[2] != "sibling" {
		t.Fatalf("execution order = %v, want [root late-early sibling]", order)
	}
}

// TestRunningIsTheTokenHolder: Running reports the proc holding the
// token while it runs, and nil between constructs.
func TestRunningIsTheTokenHolder(t *testing.T) {
	e := New()
	if e.Running() != nil {
		t.Fatal("Running() non-nil before Run")
	}
	var seen *Proc
	p := e.Go("self", 0, simtime.NewClock(0), func(p *Proc) {
		seen = e.Running()
	})
	e.Run()
	if seen != p {
		t.Fatalf("Running() inside proc = %v, want the proc itself", seen)
	}
	if e.Running() != nil {
		t.Fatal("Running() non-nil after Run")
	}
}

// pingPong registers two procs that alternate via a pair of semaphores
// for the given number of rounds each, so every park is contended and
// the fast path never applies: 2*rounds full switches.
func pingPong(e *Engine, rounds int) {
	wls := new([2]WaitList)
	sems := &[2]int{1, 0}
	for p := 0; p < 2; p++ {
		mine, theirs := p, 1-p
		clk := simtime.NewClock(0)
		e.Go(fmt.Sprintf("p%d", p), p, clk, func(ep *Proc) {
			for i := 0; i < rounds; i++ {
				at := clk.Now()
				ep.ParkOn(&wls[mine], "turn", func() (simtime.Seconds, bool) {
					if sems[mine] == 0 {
						return 0, false
					}
					return at, true
				})
				sems[mine]--
				clk.Advance(0.25)
				sems[theirs]++
				wls[theirs].Notify()
			}
		})
	}
}

// schedLatencySamples counts the goroutine-became-runnable events the
// Go scheduler has recorded: one per goroutine handed to a run queue.
func schedLatencySamples() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestSwitchStaysOutOfTheScheduler pins the switch mechanism by count,
// not by clock: a proc switch is a coroutine switch on the calling
// thread, so 100 000 of them must leave the scheduler's run-queue
// latency histogram (nearly) untouched. A goroutine-and-channel
// handshake adds a sample per handoff — tens of thousands here, after
// the histogram's own sampling.
func TestSwitchStaysOutOfTheScheduler(t *testing.T) {
	e := New()
	pingPong(e, 50000)
	before := schedLatencySamples()
	e.Run()
	if got := schedLatencySamples() - before; got >= 1000 {
		t.Fatalf("100000 proc switches added %d scheduler latency samples, want < 1000: a switch is entering the Go scheduler", got)
	}
}

// TestNestedEngines: a proc of one engine drives a second engine's Run
// to completion and carries on, as a task region inside a parallel
// construct does; both engines keep their own election order.
func TestNestedEngines(t *testing.T) {
	outer := New()
	var order []string
	var wl WaitList
	outerClk := simtime.NewClock(1.0)
	outer.Go("outer-a", 0, outerClk, func(p *Proc) {
		inner := New()
		for _, w := range []struct {
			name string
			at   simtime.Seconds
		}{{"inner-late", 2.0}, {"inner-early", 1.0}} {
			clk := simtime.NewClock(w.at)
			inner.Go(w.name, 0, clk, func(ip *Proc) {
				order = append(order, w.name)
				clk.Advance(5.0)
				ip.ParkOn(&wl, "own turn", nil)
				order = append(order, w.name+" again")
			})
		}
		inner.Run()
		if outer.Running() != p || inner.Running() != nil {
			t.Errorf("after the inner Run: outer running %v, inner running %v", outer.Running(), inner.Running())
		}
		outerClk.Advance(1.0)
		p.ParkOn(&wl, "after the region", nil)
		order = append(order, "outer-a")
	})
	outer.Go("outer-b", 1, simtime.NewClock(1.5), func(*Proc) {
		order = append(order, "outer-b")
	})
	outer.Run()
	want := "inner-early inner-late inner-early again inner-late again outer-b outer-a"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("execution order = %q, want %q", got, want)
	}
}

// TestAbandonedEngineReleasesItsProcs: a recovered proc panic or a
// recovered deadlock leaves no proc goroutine behind — parked procs
// unwind through their deferred calls (even one that parks again), a
// proc that never started is discarded — and a wait list that outlives
// the engine holds none of them. Goroutines are counted against a
// first, identical run: a proc that exited leaves its coroutine idle
// for reuse, an abandoned one must not leave anything.
func TestAbandonedEngineReleasesItsProcs(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		exploder   bool
	}{
		{"proc panic", "boom", true},
		{"deadlock", "deadlock", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wl WaitList // outlives the engines, like a cluster lock's
			abandon := func() {
				unwound := 0
				e := New()
				for i := 0; i < 4; i++ {
					e.Go(fmt.Sprintf("waiter %d", i), i, simtime.NewClock(0), func(p *Proc) {
						defer func() {
							unwound++
							p.ParkOn(&wl, "deferred", never)
						}()
						p.ParkOn(&wl, "never", never)
						t.Error("a parked proc of an abandoned engine resumed")
					})
				}
				if tc.exploder {
					e.Go("exploder", 4, simtime.NewClock(1.0), func(*Proc) { panic("boom") })
					e.Go("unstarted", 5, simtime.NewClock(2.0), func(*Proc) {
						t.Error("a proc behind the panic ran")
					})
				}
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
							t.Errorf("Run panicked with %q, want it to mention %q", msg, tc.want)
						}
					}()
					e.Run()
				}()
				if unwound != 4 {
					t.Errorf("%d of 4 parked procs ran their deferred calls", unwound)
				}
				if len(wl.procs) != 0 {
					t.Errorf("%d abandoned procs still on the wait list", len(wl.procs))
				}
			}
			abandon()
			base := runtime.NumGoroutine()
			abandon()
			if got := runtime.NumGoroutine(); got > base {
				t.Errorf("%d goroutines after the second recovered panic, %d after the first: abandoned procs leaked", got, base)
			}
		})
	}
}

// TestIdleCoroutineKeepsNothingAlive: a coroutine waiting for its next
// proc must not hold on to the last one — through it hang the engine,
// the proc bodies' closures and the whole cluster they capture, and
// the idle list lives as long as the process.
func TestIdleCoroutineKeepsNothingAlive(t *testing.T) {
	run := func() weak.Pointer[[1 << 16]byte] {
		captured := new([1 << 16]byte)
		e := New()
		e.Go("holder", 0, simtime.NewClock(0), func(*Proc) { captured[0]++ })
		e.Run()
		return weak.Make(captured)
	}
	w := run()
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("what a finished proc's body captured is still reachable: an idle coroutine kept its proc")
	}
}
