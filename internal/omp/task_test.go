package omp

import (
	"strings"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/simtime"
)

// taskTree runs a small recursive task tree over a shared array: leaf
// tasks charge skewed compute and write their range, interior tasks
// merge-sum their halves after a taskwait. Returns the checksum.
func taskTree(t *testing.T, rt *Runtime, n, leaf int) (float64, TaskStats) {
	return observedTaskTree(t, rt, n, leaf, nil)
}

// observedTaskTree is taskTree with seen, when non-nil, called with the
// executing process at the start of every task body and again after
// every taskwait returns.
func observedTaskTree(t *testing.T, rt *Runtime, n, leaf int, seen func(*TaskProc)) (float64, TaskStats) {
	t.Helper()
	a, err := Alloc[float64](rt, "tree.data", n)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	var rec func(tp *TaskProc, lo, hi int)
	rec = func(tp *TaskProc, lo, hi int) {
		if seen != nil {
			seen(tp)
		}
		if hi-lo <= leaf {
			buf := make([]float64, hi-lo)
			for i := range buf {
				buf[i] = float64((lo+i)%97) * 1.25
			}
			a.WriteRange(tp.Mem(), lo, buf)
			// Skew: early ranges are 8x more expensive.
			per := simtime.Micros(100)
			if lo < hi && lo < (hi-lo)*4 {
				per *= 8
			}
			tp.ChargeUnits(hi-lo, per)
			return
		}
		mid := lo + (hi-lo)/2
		tp.Spawn(func(c *TaskProc) { rec(c, lo, mid) })
		tp.Spawn(func(c *TaskProc) { rec(c, mid, hi) })
		tp.TaskWait()
		if seen != nil {
			seen(tp)
		}
	}
	stats := rt.Tasks("tree", func(tp *TaskProc) { rec(tp, 0, n) })

	mp := rt.MasterProc()
	buf := make([]float64, n)
	a.ReadRange(mp.Mem(), 0, n, buf)
	sum := 0.0
	for i, v := range buf {
		sum += v * float64(i%13+1)
	}
	return sum, stats
}

// seqTreeChecksum is the sequential reference of taskTree's result.
func seqTreeChecksum(n int) float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = float64(i%97) * 1.25
	}
	sum := 0.0
	for i, v := range buf {
		sum += v * float64(i%13+1)
	}
	return sum
}

// A task region on an adaptive runtime with no adapt events must cost
// exactly what the non-adaptive variant costs, byte for byte — the
// Table 1 headline extended to tasking.
func TestTasksAdaptivityIsFree(t *testing.T) {
	n, leaf := 1<<13, 1<<10
	run := func(adaptive bool) (simtime.Seconds, int64, float64, TaskStats) {
		rt, err := New(Config{Hosts: 8, Procs: 4, Adaptive: adaptive})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		sum, stats := taskTree(t, rt, n, leaf)
		return rt.Now(), rt.Cluster().Fabric().Snapshot().TotalBytes(), sum, stats
	}
	tA, bA, sA, stA := run(true)
	tN, bN, sN, stN := run(false)
	if tA != tN {
		t.Errorf("adaptive %v vs non-adaptive %v virtual time", tA, tN)
	}
	if bA != bN {
		t.Errorf("adaptive %d vs non-adaptive %d traffic bytes", bA, bN)
	}
	if sA != sN {
		t.Errorf("adaptive %g vs non-adaptive %g checksum", sA, sN)
	}
	if stA.Adaptations != 0 {
		t.Errorf("adaptations = %d with no events", stA.Adaptations)
	}
	if stA.Steals != stN.Steals {
		t.Errorf("steal counts diverge: %d vs %d", stA.Steals, stN.Steals)
	}
}

// With a single process a task region is hand-scheduled sequential
// execution: no steals, no task traffic, and virtual time equal to the
// same construct's compute charges.
func TestTasksSingleProcIsSequential(t *testing.T) {
	rt, err := New(Config{Hosts: 4, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n, leaf := 1<<12, 1<<10
	before := rt.Cluster().Fabric().Snapshot().TotalBytes()
	sum, stats := taskTree(t, rt, n, leaf)
	after := rt.Cluster().Fabric().Snapshot().TotalBytes()

	if want := seqTreeChecksum(n); sum != want {
		t.Errorf("checksum %g, sequential reference %g", sum, want)
	}
	if after != before {
		t.Errorf("single-proc task region moved %d bytes on the network", after-before)
	}
	if stats.Steals != 0 || stats.MigratedExec != 0 || stats.RemoteCompletions != 0 {
		t.Errorf("single-proc region recorded remote activity: %+v", stats)
	}
	if stats.Spawned != stats.Executed {
		t.Errorf("spawned %d != executed %d", stats.Spawned, stats.Executed)
	}
}

// Checksums are bit-identical to the sequential reference for every
// team size, and the steal accounting invariant holds: with no
// adaptations, a task executes away from home exactly when stolen.
func TestTasksDeterministicAcrossTeamSizes(t *testing.T) {
	want := seqTreeChecksum(1 << 13)
	for _, procs := range []int{1, 2, 3, 4, 7} {
		rt, err := New(Config{Hosts: 8, Procs: procs, Adaptive: true})
		if err != nil {
			t.Fatalf("New(%d): %v", procs, err)
		}
		sum, stats := taskTree(t, rt, 1<<13, 1<<10)
		if sum != want {
			t.Errorf("procs=%d: checksum %g, reference %g", procs, sum, want)
		}
		if stats.Spawned != stats.Executed {
			t.Errorf("procs=%d: spawned %d != executed %d", procs, stats.Spawned, stats.Executed)
		}
		if stats.MigratedExec != stats.Steals {
			t.Errorf("procs=%d: %d migrated executions but %d steals", procs, stats.MigratedExec, stats.Steals)
		}
		if procs > 1 && stats.Steals == 0 {
			t.Errorf("procs=%d: no steals on a skewed tree", procs)
		}
		// Determinism: an identical run reproduces time, traffic and stats.
		rt2, err := New(Config{Hosts: 8, Procs: procs, Adaptive: true})
		if err != nil {
			t.Fatalf("New(%d): %v", procs, err)
		}
		sum2, stats2 := taskTree(t, rt2, 1<<13, 1<<10)
		if sum2 != sum {
			t.Errorf("procs=%d: checksums diverge across identical runs", procs)
		}
		if rt2.Now() != rt.Now() {
			t.Errorf("procs=%d: virtual times diverge across identical runs: %v vs %v", procs, rt2.Now(), rt.Now())
		}
		if stats2.Steals != stats.Steals || stats2.Executed != stats.Executed {
			t.Errorf("procs=%d: schedules diverge across identical runs", procs)
		}
	}
}

// A join event submitted before the region matures mid-tree: the team
// grows at a task scheduling point, the new process steals in, and the
// result is still bit-identical to the sequential reference.
func TestTasksJoinMidTree(t *testing.T) {
	rt, err := New(Config{Hosts: 8, Procs: 2, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Matures ~0.85s into the region (spawn + connect lead time).
	if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 5, At: 0.1}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sum, stats := taskTree(t, rt, 1<<13, 1<<9)
	if want := seqTreeChecksum(1 << 13); sum != want {
		t.Errorf("checksum %g, reference %g", sum, want)
	}
	if stats.Adaptations == 0 {
		t.Fatalf("join never applied mid-tree; stats %+v, team %v", stats, rt.Team())
	}
	if rt.NProcs() != 3 {
		t.Errorf("team size %d after join, want 3", rt.NProcs())
	}
	if got := stats.ExecutedByHost[5]; got == 0 {
		t.Errorf("joined host executed no tasks")
	}
	if len(rt.AdaptLog()) == 0 {
		t.Errorf("adaptation not recorded in the runtime log")
	}
}

// A leave event matures mid-tree: it is held until the departing
// process is stackless, its deque re-homes, and the checksum is still
// exact.
func TestTasksLeaveMidTree(t *testing.T) {
	rt, err := New(Config{Hosts: 8, Procs: 4, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 3, At: 0.5, Grace: 30}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sum, stats := taskTree(t, rt, 1<<13, 1<<9)
	if want := seqTreeChecksum(1 << 13); sum != want {
		t.Errorf("checksum %g, reference %g", sum, want)
	}
	if stats.Adaptations == 0 {
		t.Fatalf("leave never applied; team %v", rt.Team())
	}
	if rt.NProcs() != 3 {
		t.Errorf("team size %d after leave, want 3", rt.NProcs())
	}
	for _, h := range rt.Team() {
		if h == 3 {
			t.Errorf("host 3 still in team %v", rt.Team())
		}
	}
	if stats.MigratedExec > stats.Steals+stats.Rehomed {
		t.Errorf("accounting: %d migrated executions exceed %d steals + %d rehomes",
			stats.MigratedExec, stats.Steals, stats.Rehomed)
	}
	if stats.Spawned != stats.Executed {
		t.Errorf("spawned %d != executed %d", stats.Spawned, stats.Executed)
	}
}

// Leave and join in one region, exercising re-homing plus a fresh
// stealer while frames are suspended across the adaptation.
func TestTasksLeaveAndJoinMidTree(t *testing.T) {
	rt, err := New(Config{Hosts: 8, Procs: 3, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: 2, At: 0.4, Grace: 30}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 6, At: 0.1}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sum, stats := taskTree(t, rt, 1<<14, 1<<9)
	if want := seqTreeChecksum(1 << 14); sum != want {
		t.Errorf("checksum %g, reference %g", sum, want)
	}
	if stats.Adaptations == 0 {
		t.Fatalf("no adaptation applied; team %v", rt.Team())
	}
	if rt.NProcs() != 3 {
		t.Errorf("team size %d, want 3 (one out, one in)", rt.NProcs())
	}
	if stats.Spawned != stats.Executed {
		t.Errorf("spawned %d != executed %d", stats.Spawned, stats.Executed)
	}
}

// Through a join that matures mid-tree and a leave held until its
// process is stackless, every task body sees its process as the team's
// entry for its id and the team's current size, and the barrier that
// ends the region receives the final team's processes. Every leaf
// spawns a tail task nobody waits for, which charges ten seconds when
// the joined host runs it: that host then arrives at the barrier long
// after every other process, so a barrier handed any other process set
// would release before it.
func TestTaskProcsTrackTheTeam(t *testing.T) {
	const joiner, leaver = 6, 2
	rt, err := New(Config{Hosts: 8, Procs: 3, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, e := range []adapt.Event{
		{Kind: adapt.KindLeave, Host: leaver, At: 0.4, Grace: 30},
		{Kind: adapt.KindJoin, Host: joiner, At: 0.1},
	} {
		if err := rt.Submit(e); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	var joined *TaskProc
	stats := tailedTree(rt, func(tp *TaskProc) {
		team := rt.Team()
		if tp.N != len(team) || tp.ID < 0 || tp.ID >= len(team) || team[tp.ID] != tp.Host() {
			t.Errorf("host %d runs as process %d of %d; team %v", tp.Host(), tp.ID, tp.N, team)
		}
	}, func(tp *TaskProc) {
		if tp.Host() == joiner {
			tp.Charge(10)
			joined = tp
		}
	})

	if stats.Adaptations == 0 || rt.NProcs() != 3 {
		t.Fatalf("%d adaptations, team %v; want the leave and the join applied", stats.Adaptations, rt.Team())
	}
	for _, h := range rt.Team() {
		if h == leaver {
			t.Fatalf("host %d still in team %v", leaver, rt.Team())
		}
	}
	if joined == nil {
		t.Fatalf("the joined host ran no tail task; executed by host %v", stats.ExecutedByHost)
	}
	if rt.Now() < joined.Now() {
		t.Errorf("the region's barrier released at %v, before the joined process arrived at %v", rt.Now(), joined.Now())
	}
}

// tailedTree runs a binary task tree of depth 6 whose 64 leaves each
// charge 0.2 s and spawn a tail task that nobody waits for, so a
// process returns to its top level with queued tasks; tail runs as the
// tail's body. seen is called with the executing process at the start
// of every task body and after every taskwait.
func tailedTree(rt *Runtime, seen, tail func(*TaskProc)) TaskStats {
	var rec func(tp *TaskProc, depth int)
	rec = func(tp *TaskProc, depth int) {
		seen(tp)
		if depth == 0 {
			tp.Charge(0.2)
			tp.Spawn(func(c *TaskProc) {
				seen(c)
				tail(c)
			})
			return
		}
		tp.Spawn(func(c *TaskProc) { rec(c, depth-1) })
		tp.Spawn(func(c *TaskProc) { rec(c, depth-1) })
		tp.TaskWait()
		seen(tp)
	}
	return rt.Tasks("tailed", func(tp *TaskProc) { rec(tp, 6) })
}

// Loop constructs still work after a task region (the runtime's team
// state stays consistent through task-point adaptations).
func TestTasksThenLoop(t *testing.T) {
	rt, err := New(Config{Hosts: 8, Procs: 2, Adaptive: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := rt.Submit(adapt.Event{Kind: adapt.KindJoin, Host: 4, At: 0.05}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sum, _ := taskTree(t, rt, 1<<13, 1<<9)
	if want := seqTreeChecksum(1 << 13); sum != want {
		t.Fatalf("checksum %g, reference %g", sum, want)
	}
	got := rt.For("after", 0, 1000, func(p *Proc, lo, hi int) {
		p.Contribute(float64(hi - lo))
	}, WithReduce(0, func(a, b float64) float64 { return a + b }))
	if got != 1000 {
		t.Errorf("post-region loop covered %g iterations, want 1000", got)
	}
}

// A Tmk lock held across a task scheduling point used to be a banned
// pattern (the bespoke task dispatcher would deadlock); on the shared
// engine it simply serialises the contenders: the holder is resumed,
// releases, and the waiter is granted in virtual-time order.
func TestTasksLockAcrossSchedulingPointWorks(t *testing.T) {
	rt, err := New(Config{Hosts: 2, Procs: 2, Adaptive: false})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	a, err := Alloc[float64](rt, "locked.v", 8)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	rt.Tasks("locked", func(tp *TaskProc) {
		tp.Lock(7)
		for i := 0; i < 4; i++ {
			tp.Spawn(func(c *TaskProc) {
				c.Lock(7) // contends while the spawner holds the lock
				a.Set(c.Mem(), 0, a.Get(c.Mem(), 0)+1)
				c.Unlock(7)
			})
		}
		a.Set(tp.Mem(), 0, a.Get(tp.Mem(), 0)+1)
		tp.Unlock(7) // released before the wait: children may now run anywhere
		tp.TaskWait()
	})
	if got := a.Get(rt.MasterProc().Mem(), 0); got != 5 {
		t.Fatalf("locked counter = %g, want 5", got)
	}
}

// A genuine lock cycle — a task re-acquiring a lock its own host holds,
// with no runnable process left to release it — is detected by the
// engine, which panics naming the parked procs and their wait reasons
// instead of hanging.
func TestTasksLockSelfDeadlockPanics(t *testing.T) {
	rt, err := New(Config{Hosts: 2, Procs: 1, Adaptive: false})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("self-deadlocked in-region lock did not panic")
		}
		msg, ok := v.(string)
		if !ok || !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "lock 7") {
			t.Fatalf("unexpected panic: %v", v)
		}
	}()
	rt.Tasks("locked", func(tp *TaskProc) {
		tp.Lock(7)
		tp.Spawn(func(c *TaskProc) {
			c.Lock(7) // same single worker already holds lock 7: a cycle
			c.Unlock(7)
		})
		tp.TaskWait()
		tp.Unlock(7)
	})
}
