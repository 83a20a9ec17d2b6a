package omp

import (
	"fmt"
	"reflect"
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

// threeTaskProcs builds a task region over a three-host runtime, one
// process per host in slot order, every clock at zero.
func threeTaskProcs(t *testing.T) *taskRegion {
	t.Helper()
	rt := newRT(t, 3, 3, false)
	r := &taskRegion{rt: rt, stats: TaskStats{ExecutedByHost: make(map[dsm.HostID]int64)}}
	for slot, h := range rt.team {
		p := &Proc{ID: slot, N: len(rt.team), rt: rt, host: rt.cluster.Host(h), clk: simtime.NewClock(0)}
		r.procs = append(r.procs, &TaskProc{Proc: p, r: r})
	}
	return r
}

// TestDequeEnds: the owner pops the newest task, a thief takes the
// oldest, and the victim is the richest deque, ties to the lowest slot.
func TestDequeEnds(t *testing.T) {
	r := threeTaskProcs(t)
	tp := r.procs
	tasks := make([]*task, 6)
	for i := range tasks {
		tasks[i] = &task{at: simtime.Seconds(i)}
	}
	tp[0].deque = append(tp[0].deque, tasks[0], tasks[1], tasks[2])
	tp[2].deque = append(tp[2].deque, tasks[3], tasks[4], tasks[5])
	who := func(v *TaskProc) string {
		if v == nil {
			return "no process"
		}
		return v.name()
	}

	if v := r.victim(tp[1]); v != tp[0] {
		t.Fatalf("equal deques: victim %s, want the lowest slot", who(v))
	}
	if got := r.popOwn(tp[0]); got != tasks[2] {
		t.Fatalf("popOwn took the task spawned at %v, want the newest", got.at)
	}
	if v := r.victim(tp[1]); v != tp[2] {
		t.Fatalf("victim %s, want the richest deque", who(v))
	}
	got := r.steal(tp[1], tp[2])
	if got != tasks[3] || r.stats.Steals != 1 {
		t.Fatalf("steal took the task spawned at %v (%d steals counted), want the oldest, counted once", got.at, r.stats.Steals)
	}
	if now := tp[1].Now(); now <= tasks[3].at {
		t.Fatalf("thief's clock %v did not pass the task's spawn instant %v plus the shipment", now, tasks[3].at)
	}
	if v := r.victim(tp[0]); v != tp[2] {
		t.Fatalf("victim of the other deque's owner is %s, want process 2", who(v))
	}
	if v := r.victim(tp[2]); v != tp[0] {
		t.Fatalf("a process was offered %s, want the only other non-empty deque", who(v))
	}
	if len(tp[0].deque) != 2 || len(tp[2].deque) != 2 || r.stats.Steals != 1 {
		t.Fatalf("deques %d and %d, %d steals; want 2, 2 and 1", len(tp[0].deque), len(tp[2].deque), r.stats.Steals)
	}
}

// TestDispatchFollowsVirtualTime runs a hand-built schedule: the root
// on process 0 spawns A, B and C one virtual second apart and waits.
// The idle processes have the earlier clocks, so process 1 (lower slot)
// steals A the moment it exists, process 2 finds nothing until B is
// spawned at t=1 and starts it no earlier, and the root pops C itself.
// The bodies take 3, 2 and 1 seconds, so all three end near t=3: C on
// the owner exactly then, A and B one shipment later.
func TestDispatchFollowsVirtualTime(t *testing.T) {
	r := threeTaskProcs(t)
	var log []string
	body := func(name string, secs simtime.Seconds) func(*TaskProc) {
		return func(tp *TaskProc) {
			log = append(log, fmt.Sprintf("start %s on %d", name, tp.ID))
			if name == "B" && tp.Now() < 1 {
				t.Errorf("B started at %v, before it was spawned", tp.Now())
			}
			tp.clk.Advance(secs)
			log = append(log, fmt.Sprintf("end %s", name))
		}
	}
	r.run(func(tp *TaskProc) {
		tp.Spawn(body("A", 3))
		tp.clk.Advance(1)
		tp.Spawn(body("B", 2))
		tp.clk.Advance(1)
		tp.Spawn(body("C", 1))
		tp.TaskWait()
		log = append(log, "joined")
	})
	want := []string{
		"start A on 1", "end A", // runs whole at t=0: a body has no scheduling point
		"start B on 2", "end B",
		"start C on 0", "end C",
		"joined",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("dispatch order\n got %q\nwant %q", log, want)
	}
	st := r.stats
	if st.Spawned != 4 || st.Executed != 4 || st.Steals != 2 || st.MigratedExec != 2 || st.RemoteCompletions != 2 {
		t.Fatalf("stats %+v, want 4 spawned and executed, 2 steals, 2 migrated, 2 remote completions", st)
	}
	// One process per host, host i in slot i.
	if e := st.ExecutedByHost; e[0] != 2 || e[1] != 1 || e[2] != 1 {
		t.Fatalf("executed by slot: %d %d %d, want 2 1 1", e[0], e[1], e[2])
	}
	// The join waits for the later remote completion notice, so the
	// root ends past t=3; the thieves end at 3 plus one shipment.
	tp := r.procs
	if now := tp[0].Now(); now <= 3 || now > 3.1 {
		t.Fatalf("root joined at %v, want just past 3", now)
	}
	if a, b := tp[1].Now(), tp[2].Now(); a <= 3 || b <= 3 || a > 3.1 || b > 3.1 {
		t.Fatalf("thieves ended at %v and %v, want just past 3", a, b)
	}
}
