package omp

import (
	"fmt"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/engine"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Parallel executes body once on every process of the team: the bare
// parallel construct. The iteration partitioning, if any, is the
// body's business via Proc.Block.
func (rt *Runtime) Parallel(name string, body func(p *Proc)) {
	procs := rt.fork(name)
	rt.run(procs, body)
	rt.join(procs)
}

// fork applies pending adapt events (this is the adaptation point),
// then broadcasts Tmk_fork to the team and returns one Proc per team
// member. Proc 0 is the master process and shares the master clock.
func (rt *Runtime) fork(name string) []*Proc {
	if rt.forkHook != nil {
		rt.forkHook(rt)
	}
	if rt.mgr != nil && rt.mgr.PendingCount() > 0 {
		elapsed, _ := rt.adapt(rt.master.Now(), rt.forks, nil)
		rt.master.Advance(elapsed)
	}
	rt.forks++

	t := len(rt.team)
	master := rt.cluster.Master()
	rt.master.Advance(rt.cluster.Costs().Fork(master.Machine(), t, func(i int) simnet.MachineID {
		return rt.cluster.Host(rt.team[i]).Machine()
	}))
	for _, h := range rt.team[1:] {
		rt.cluster.Fabric().Record(master.Machine(), rt.cluster.Host(h).Machine(), msgHeader)
	}

	start := rt.master.Now()
	procs := make([]*Proc, t)
	for i, h := range rt.team {
		clk := rt.master
		if i != 0 {
			clk = simtime.NewClock(start)
		}
		procs[i] = &Proc{ID: i, N: t, rt: rt, host: rt.cluster.Host(h), clk: clk}
	}
	return procs
}

// msgHeader is the DSM protocol header size, charged for fork messages.
const msgHeader = dsm.MsgHeader

// run executes body on every proc of the construct under a fresh
// discrete-event engine: each proc is a coroutine, exactly one runs at
// any instant, and the engine always wakes the runnable proc with the
// lowest virtual time (ties broken by host id). The calling goroutine
// drives the engine, so when run returns every proc has finished the
// body and the construct is quiescent. Blocking primitives reached
// from the body (DSM lock acquires) park the proc on the same engine
// via the cluster, which is what makes lock grant order — and with it
// every simulated outcome — independent of the Go scheduler and
// GOMAXPROCS.
func (rt *Runtime) run(procs []*Proc, body func(p *Proc)) {
	e := engine.New()
	rt.cluster.BeginPhase(e)
	defer rt.cluster.EndPhase()

	for _, p := range procs {
		p := p
		e.Go(fmt.Sprintf("proc %d (host %d)", p.ID, p.host.ID()), int(p.host.ID()), p.clk,
			func(*engine.Proc) { body(p) })
	}
	e.Run()
}

// join implements Tmk_join: urgent-leave classification against the
// arrival times (migrations adjust them per the multiplexing model),
// then the DSM barrier; the master resumes at the barrier release.
func (rt *Runtime) join(procs []*Proc) {
	arrivals := make([]simtime.Seconds, len(procs))
	for i, p := range procs {
		arrivals[i] = p.clk.Now()
	}
	if rt.mgr != nil {
		rt.mgr.AdjustJoin(rt.cluster, rt.team, arrivals)
	}
	res := rt.cluster.Barrier(rt.team, arrivals)
	rt.master.AdvanceTo(res.ReleaseTime)
	rt.phases++
}

// adapt is the adaptation transaction, at a fork and at a task
// scheduling point alike: the manager applies the matured events the
// filter accepts (nil = all) at virtual instant now, the team is
// reshaped, and the point is logged — under index, the ordinal of the
// construct it belongs to — with the traffic it caused. It returns the
// time the adaptation added, for the caller to charge, and whether any
// event applied.
func (rt *Runtime) adapt(now simtime.Seconds, index int64, eligible func(adapt.Event) bool) (simtime.Seconds, bool) {
	before := rt.cluster.Fabric().Snapshot()
	res, err := rt.mgr.AtAdaptationPoint(rt.cluster, rt.team, now, eligible)
	if err != nil {
		// Submit-time validation rejects ill-formed events; reaching
		// here means the runtime state is corrupt.
		panic(fmt.Sprintf("omp: adaptation failed: %v", err))
	}
	if len(res.Applied) == 0 {
		return 0, false
	}
	rt.team = res.Team
	window := rt.cluster.Fabric().Snapshot().Sub(before)
	_, _, maxLink := window.MaxLink()
	rt.adaptLog = append(rt.adaptLog, AdaptationPoint{
		Index:         index,
		When:          now,
		Elapsed:       res.Elapsed,
		Applied:       res.Applied,
		TeamAfter:     rt.Team(),
		WindowBytes:   window.TotalBytes(),
		WindowMaxLink: maxLink,
	})
	return res.Elapsed, true
}
