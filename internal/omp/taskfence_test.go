package omp

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/simtime"
)

// TestTaskFence pins, per case, every TaskStats field (ExecutedByHost
// host by host), the final clock of every process that executed a task,
// the master's time after the region's barrier, the team, the fabric's
// bytes and messages and every adaptation point. The cases, under each
// protocol, are taskTree at 1 to 4 processes, the same tree with a join
// that matures mid-tree and with a leave held until its process is
// stackless, tailedTree through a leave and a join (the leaver's queued
// tails re-home), and the lock held across a scheduling point. The golden
// was captured before the task scheduler moved into this package; a
// change to the task runtime's mechanics must reproduce it unedited.
//
// Regenerate with NOWOMP_REGEN_GOLDEN=tasks, and only for an intended
// cost or schedule change.
func TestTaskFence(t *testing.T) {
	var out strings.Builder
	tree := func(leaf int) fenceRegion {
		return func(t *testing.T, rt *Runtime, seen func(*TaskProc)) TaskStats {
			sum, stats := observedTaskTree(t, rt, 1<<13, leaf, seen)
			if want := seqTreeChecksum(1 << 13); sum != want {
				t.Fatalf("checksum %g, reference %g", sum, want)
			}
			return stats
		}
	}
	tailed := func(t *testing.T, rt *Runtime, seen func(*TaskProc)) TaskStats {
		return tailedTree(rt, seen, func(tp *TaskProc) { tp.Charge(0.05) })
	}
	for _, proto := range []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC, dsm.Hybrid} {
		for procs := 1; procs <= 4; procs++ {
			fenceTaskCase(t, &out, fmt.Sprintf("tree/%v/%dp", proto, procs),
				Config{Hosts: 8, Procs: procs, Adaptive: true, Protocol: proto}, nil, tree(1<<10))
		}
		fenceTaskCase(t, &out, fmt.Sprintf("tree/%v/join", proto),
			Config{Hosts: 8, Procs: 2, Adaptive: true, Protocol: proto},
			[]adapt.Event{{Kind: adapt.KindJoin, Host: 5, At: 0.1}}, tree(1<<9))
		fenceTaskCase(t, &out, fmt.Sprintf("tree/%v/leave", proto),
			Config{Hosts: 8, Procs: 4, Adaptive: true, Protocol: proto},
			[]adapt.Event{{Kind: adapt.KindLeave, Host: 3, At: 0.5, Grace: 30}}, tree(1<<9))
		fenceTaskCase(t, &out, fmt.Sprintf("tailed/%v/leave-join", proto),
			Config{Hosts: 8, Procs: 3, Adaptive: true, Protocol: proto},
			[]adapt.Event{{Kind: adapt.KindLeave, Host: 2, At: 0.4, Grace: 30}, {Kind: adapt.KindJoin, Host: 6, At: 0.1}}, tailed)
		fenceTaskCase(t, &out, fmt.Sprintf("lock/%v", proto),
			Config{Hosts: 2, Procs: 2, Protocol: proto}, nil, lockedRegion)
	}
	got := out.String()
	path := filepath.Join("testdata", "taskfence.golden")
	if os.Getenv("NOWOMP_REGEN_GOLDEN") == "tasks" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	name := ""
	for i := range gl {
		if strings.HasPrefix(gl[i], "== ") {
			name = gl[i][3:]
		}
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s: case %s, first difference at line %d\n got: %s\nwant: %s", path, name, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: transcript is %d lines, golden %d", path, len(gl), len(wl))
}

// fenceRegion runs one task region on rt, calling seen with the
// executing process at least once in every task body.
type fenceRegion func(t *testing.T, rt *Runtime, seen func(*TaskProc)) TaskStats

// fenceTaskCase runs one case of the fence and appends its transcript.
// A case with events must apply every one of them inside the region.
func fenceTaskCase(t *testing.T, out *strings.Builder, name string, cfg Config, events []adapt.Event, region fenceRegion) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range events {
		if err := rt.Submit(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	seen := map[dsm.HostID]*TaskProc{}
	stats := region(t, rt, func(tp *TaskProc) { seen[tp.Host()] = tp })
	applied := 0
	for _, p := range rt.AdaptLog() {
		applied += len(p.Applied)
	}
	if applied != len(events) || int(stats.Adaptations) != len(rt.AdaptLog()) {
		t.Fatalf("%s: %d of %d events applied at %d adaptation points, %d of them in the region",
			name, applied, len(events), len(rt.AdaptLog()), stats.Adaptations)
	}

	sec := func(s simtime.Seconds) string { return strconv.FormatFloat(float64(s), 'g', -1, 64) }
	fab := rt.Cluster().Fabric().Snapshot()
	fmt.Fprintf(out, "== %s\n", name)
	fmt.Fprintf(out, "now %s team %v fabric %d bytes %d msgs\n", sec(rt.Now()), rt.Team(), fab.TotalBytes(), fab.TotalMessages())
	fmt.Fprintf(out, "spawned %d executed %d steals %d (%d B) rehomed %d (%d B) migrated %d remote %d flushdiffs %d adaptations %d\n",
		stats.Spawned, stats.Executed, stats.Steals, stats.StealBytes, stats.Rehomed, stats.RehomeBytes,
		stats.MigratedExec, stats.RemoteCompletions, stats.FlushDiffs, stats.Adaptations)
	hosts := make([]dsm.HostID, 0, len(stats.ExecutedByHost))
	for h := range stats.ExecutedByHost {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		fmt.Fprintf(out, "host %d executed %d clock %s\n", h, stats.ExecutedByHost[h], sec(seen[h].Now()))
	}
	for _, p := range rt.AdaptLog() {
		fmt.Fprintf(out, "adapt fork %d at %s elapsed %s window %d B max link %d B team %v\n",
			p.Index, sec(p.When), sec(p.Elapsed), p.WindowBytes, p.WindowMaxLink, p.TeamAfter)
		for _, r := range p.Applied {
			fmt.Fprintf(out, "  %v host %d raised %s urgent %v\n", r.Event.Kind, r.Event.Host, sec(r.Event.At), r.Urgent)
		}
	}
}

// lockedRegion is TestTasksLockAcrossSchedulingPointWorks's region:
// the root holds lock 7 across four spawns whose bodies contend for it.
func lockedRegion(t *testing.T, rt *Runtime, observe func(*TaskProc)) TaskStats {
	a, err := Alloc[float64](rt, "locked.v", 8)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	stats := rt.Tasks("locked", func(tp *TaskProc) {
		observe(tp)
		tp.Lock(7)
		for i := 0; i < 4; i++ {
			tp.Spawn(func(c *TaskProc) {
				observe(c)
				c.Lock(7)
				a.Set(c.Mem(), 0, a.Get(c.Mem(), 0)+1)
				c.Unlock(7)
			})
		}
		a.Set(tp.Mem(), 0, a.Get(tp.Mem(), 0)+1)
		tp.Unlock(7)
		tp.TaskWait()
	})
	if got := a.Get(rt.MasterProc().Mem(), 0); got != 5 {
		t.Fatalf("locked counter = %g, want 5", got)
	}
	return stats
}
