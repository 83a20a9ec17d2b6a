package task

import (
	"fmt"
	"reflect"
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

// threeWorkers builds a runner over a three-host cluster, one worker
// per host in slot order, every clock at zero.
func threeWorkers(t *testing.T) *Runner {
	t.Helper()
	c, err := dsm.New(dsm.Config{MaxHosts: 3})
	if err != nil {
		t.Fatalf("dsm.New: %v", err)
	}
	s := NewRunner(Config{Cluster: c})
	for id := dsm.HostID(0); id < 3; id++ {
		if id > 0 {
			if _, err := c.Join(id); err != nil {
				t.Fatalf("Join(%d): %v", id, err)
			}
		}
		s.AddWorker(c.Host(id), simtime.NewClock(0))
	}
	return s
}

// TestDequeEnds: the owner pops the newest task, a thief takes the
// oldest, and the victim is the richest deque, ties to the lowest slot.
func TestDequeEnds(t *testing.T) {
	s := threeWorkers(t)
	w := s.Workers()
	tasks := make([]*Task, 6)
	for i := range tasks {
		tasks[i] = &Task{at: simtime.Seconds(i)}
	}
	w[0].deque = append(w[0].deque, tasks[0], tasks[1], tasks[2])
	w[2].deque = append(w[2].deque, tasks[3], tasks[4], tasks[5])

	if v := s.victim(w[1]); v != w[0] {
		t.Fatalf("equal deques: victim %v, want the lowest slot", v)
	}
	if got := s.popOwn(w[0]); got != tasks[2] {
		t.Fatalf("popOwn took the task spawned at %v, want the newest", got.at)
	}
	if v := s.victim(w[1]); v != w[2] {
		t.Fatalf("victim %v, want the richest deque", v)
	}
	got := s.steal(w[1], w[2])
	if got != tasks[3] || !got.stolen {
		t.Fatalf("steal took the task spawned at %v (stolen=%v), want the oldest", got.at, got.stolen)
	}
	if now := w[1].clk.Now(); now <= tasks[3].at {
		t.Fatalf("thief's clock %v did not pass the task's spawn instant %v plus the shipment", now, tasks[3].at)
	}
	if v := s.victim(w[0]); v != w[2] {
		t.Fatalf("victim of the other deque's owner is %v, want worker 2", v)
	}
	if v := s.victim(w[2]); v != w[0] {
		t.Fatalf("a worker was offered %v, want the only other non-empty deque", v)
	}
	if len(w[0].deque) != 2 || len(w[2].deque) != 2 || s.stats.Steals != 1 {
		t.Fatalf("deques %d and %d, %d steals; want 2, 2 and 1", len(w[0].deque), len(w[2].deque), s.stats.Steals)
	}
}

// TestDispatchFollowsVirtualTime runs a hand-built schedule: the root
// on worker 0 spawns A, B and C one virtual second apart and waits.
// The idle workers have the earlier clocks, so worker 1 (lower slot)
// steals A the moment it exists, worker 2 finds nothing until B is
// spawned at t=1 and starts it no earlier, and the root pops C itself.
// The bodies take 3, 2 and 1 seconds, so all three end near t=3: C on
// the owner exactly then, A and B one shipment later.
func TestDispatchFollowsVirtualTime(t *testing.T) {
	s := threeWorkers(t)
	var log []string
	body := func(name string, secs simtime.Seconds) Body {
		return func(w *Worker) {
			log = append(log, fmt.Sprintf("start %s on %d", name, w.Slot()))
			if name == "B" && w.Clock().Now() < 1 {
				t.Errorf("B started at %v, before it was spawned", w.Clock().Now())
			}
			w.Clock().Advance(secs)
			log = append(log, fmt.Sprintf("end %s", name))
		}
	}
	st := s.Run(func(w *Worker) {
		w.Spawn(body("A", 3))
		w.Clock().Advance(1)
		w.Spawn(body("B", 2))
		w.Clock().Advance(1)
		w.Spawn(body("C", 1))
		w.TaskWait()
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
	if st.Spawned != 4 || st.Executed != 4 || st.Steals != 2 || st.MigratedExec != 2 || st.RemoteCompletions != 2 {
		t.Fatalf("stats %+v, want 4 spawned and executed, 2 steals, 2 migrated, 2 remote completions", st)
	}
	w := s.Workers()
	if w[0].executed != 2 || w[1].executed != 1 || w[2].executed != 1 {
		t.Fatalf("executed by slot: %d %d %d, want 2 1 1", w[0].executed, w[1].executed, w[2].executed)
	}
	// The join waits for the later remote completion notice, so the
	// root ends past t=3; the thieves end at 3 plus one shipment.
	if now := w[0].Clock().Now(); now <= 3 || now > 3.1 {
		t.Fatalf("root joined at %v, want just past 3", now)
	}
	if a, b := w[1].Clock().Now(), w[2].Clock().Now(); a <= 3 || b <= 3 || a > 3.1 || b > 3.1 {
		t.Fatalf("thieves ended at %v and %v, want just past 3", a, b)
	}
}
