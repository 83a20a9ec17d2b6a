package omp

import (
	"fmt"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/page"
	"nowomp/internal/shmem"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Config parameterises a Runtime.
type Config struct {
	// Hosts is the workstation pool size; Procs is the initial team
	// size (processes run on hosts 0..Procs-1).
	Hosts int
	Procs int

	// Model overrides the cost model; zero value means the calibrated
	// default.
	Model simtime.CostModel

	// Machine describes per-machine heterogeneity: CPU speed factors
	// and background-load traces, keyed by machine id (hosts start on
	// the machine with their id). Nil means a homogeneous pool and
	// prices bit-identically to the baseline.
	Machine *machine.Model

	// Links configures per-link latency/bandwidth overrides on the
	// fabric before the run starts; nil leaves the paper's uniform
	// switched LAN.
	Links func(*simnet.Fabric) error

	// Protocol selects the DSM coherence protocol; the zero value is
	// dsm.Tmk, the TreadMarks homeless LRC of the paper. dsm.HLRC runs
	// the same programs over home-based LRC.
	Protocol dsm.ProtocolKind

	// Adaptive enables adapt-event processing. With Adaptive false the
	// runtime is the non-adaptive base TreadMarks system: Submit fails
	// and forks never touch the adaptation machinery. Table 1 compares
	// the two variants.
	Adaptive bool

	// Grace is the default leave grace period (0 = the paper's 3 s).
	Grace simtime.Seconds

	// LeaveStrategy selects the normal-leave handoff.
	LeaveStrategy dsm.LeaveStrategy

	// Reassign selects the process-id reassignment strategy.
	Reassign adapt.ReassignStrategy

	// Pages is the page-buffer freelist the cluster draws from (see
	// dsm.Config.Pages); nil gives the cluster a private one.
	Pages *page.Freelist
}

// AdaptationPoint records what happened at one adaptation point where
// at least one event was applied, for the evaluation harness.
type AdaptationPoint struct {
	// Index is the ordinal of the fork at which the point fired.
	Index int64
	// When is the master's virtual time entering the point.
	When simtime.Seconds
	// Elapsed is the extra time the adaptation added (GC + transfer).
	Elapsed simtime.Seconds
	// Applied are the events handled.
	Applied []adapt.Record
	// TeamAfter is the new process-id-to-host mapping.
	TeamAfter []dsm.HostID
	// WindowBytes and WindowMaxLink measure the traffic of the
	// adaptation itself (GC pulls, state handoff, page map).
	WindowBytes   int64
	WindowMaxLink int64
}

// Runtime executes one OpenMP program on the simulated NOW. It is not
// safe for concurrent use: the calling goroutine is the master process.
type Runtime struct {
	cfg     Config
	cluster *dsm.Cluster
	mgr     *adapt.Manager
	team    []dsm.HostID
	master  *simtime.Clock

	forks    int64
	phases   int64
	adaptLog []AdaptationPoint
	forkHook func(*Runtime)
	dynCtr   *shmem.Array[int64]

	// restore payload, when the runtime was rebuilt from a checkpoint.
	restoring  []RegionDump
	allocIndex int
}

// RegionDump is one region's checkpointed identity and contents.
type RegionDump struct {
	Name  string
	Bytes int
	Data  []byte
}

// New creates a runtime with hosts 0..Procs-1 active as the initial
// team, mirroring a cluster-wide process start.
func New(cfg Config) (*Runtime, error) {
	if cfg.Hosts <= 0 {
		return nil, fmt.Errorf("omp: Hosts must be positive, got %d", cfg.Hosts)
	}
	if cfg.Procs <= 0 || cfg.Procs > cfg.Hosts {
		return nil, fmt.Errorf("omp: Procs must be in [1,%d], got %d", cfg.Hosts, cfg.Procs)
	}
	cluster, err := dsm.New(dsm.Config{
		MaxHosts: cfg.Hosts,
		Model:    cfg.Model,
		Machine:  cfg.Machine,
		Links:    cfg.Links,
		Protocol: cfg.Protocol,
		Adaptive: cfg.Adaptive,
		Pages:    cfg.Pages,
	})
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		cfg:     cfg,
		cluster: cluster,
		master:  simtime.NewClock(0),
	}
	for i := 0; i < cfg.Procs; i++ {
		if i > 0 {
			if _, err := cluster.Join(dsm.HostID(i)); err != nil {
				return nil, err
			}
		}
		rt.team = append(rt.team, dsm.HostID(i))
	}
	if cfg.Adaptive {
		rt.mgr = adapt.NewManager(adapt.Config{
			DefaultGrace: cfg.Grace,
			Strategy:     cfg.LeaveStrategy,
			Reassign:     cfg.Reassign,
		})
	}
	return rt, nil
}

// Cluster exposes the DSM substrate (measurement and checkpoint hook).
func (rt *Runtime) Cluster() *dsm.Cluster { return rt.cluster }

// NProcs returns the current team size. Like omp_get_num_threads, it
// is only guaranteed constant within one parallel construct.
func (rt *Runtime) NProcs() int { return len(rt.team) }

// Team returns a copy of the process-id-to-host mapping.
func (rt *Runtime) Team() []dsm.HostID {
	out := make([]dsm.HostID, len(rt.team))
	copy(out, rt.team)
	return out
}

// Now returns the master's virtual time.
func (rt *Runtime) Now() simtime.Seconds { return rt.master.Now() }

// Forks returns the number of parallel constructs executed so far:
// the adaptation points passed.
func (rt *Runtime) Forks() int64 { return rt.forks }

// AdaptLog returns the adaptation points at which events were applied.
func (rt *Runtime) AdaptLog() []AdaptationPoint {
	out := make([]AdaptationPoint, len(rt.adaptLog))
	copy(out, rt.adaptLog)
	return out
}

// Manager exposes the adapt manager, or nil for the non-adaptive
// variant.
func (rt *Runtime) Manager() *adapt.Manager { return rt.mgr }

// MachineModel returns the per-machine speed/load model, or nil for a
// homogeneous pool.
func (rt *Runtime) MachineModel() *machine.Model { return rt.cluster.Costs().Model() }

// ApplyLoadPolicy derives join/leave events from the machine model's
// load traces under the given policy and submits them all: the
// trace-driven stand-in for the paper's load-sensing daemons. Requires
// an adaptive runtime and a machine model; returns the submitted
// events.
func (rt *Runtime) ApplyLoadPolicy(p adapt.LoadPolicy) ([]adapt.Event, error) {
	if rt.mgr == nil {
		return nil, fmt.Errorf("%w; set Config.Adaptive", ErrNotAdaptive)
	}
	mm := rt.MachineModel()
	if mm == nil {
		return nil, fmt.Errorf("omp: a load policy needs Config.Machine load traces")
	}
	events, err := p.Derive(loadTraces(mm), rt.Team())
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		if err := rt.Submit(e); err != nil {
			return nil, err
		}
	}
	return events, nil
}

// loadTraces adapts the machine model's traces to the policy's input:
// host i runs on machine i at start, the paper's 1:1 binding.
func loadTraces(mm *machine.Model) map[dsm.HostID]machine.Trace {
	out := make(map[dsm.HostID]machine.Trace, mm.Machines())
	for i := 0; i < mm.Machines(); i++ {
		tr := mm.Load(simnet.MachineID(i))
		if len(tr.Steps()) > 0 {
			out[dsm.HostID(i)] = tr
		}
	}
	return out
}

// SetForkHook installs a function called at the start of every fork,
// before pending adapt events are processed. This is how external
// event sources — the paper's daemons and load sensors, or the
// experiment harness's schedules — inject events keyed to virtual time
// or to specific adaptation points. The hook runs on the master
// goroutine with no parallel construct active, so it may inspect
// Team(), Now() and Forks() and call Submit safely.
func (rt *Runtime) SetForkHook(hook func(*Runtime)) { rt.forkHook = hook }

// Submit queues an adapt event (adaptive runtimes only). On a
// non-adaptive runtime the error matches ErrNotAdaptive; an event for a
// host outside the pool [0, Config.Hosts) is refused.
func (rt *Runtime) Submit(e adapt.Event) error {
	if rt.mgr == nil {
		return fmt.Errorf("%w; set Config.Adaptive", ErrNotAdaptive)
	}
	if e.Host < 0 || int(e.Host) >= rt.cfg.Hosts {
		return fmt.Errorf("omp: %s of host %d: the pool has hosts [0,%d)", e.Kind, e.Host, rt.cfg.Hosts)
	}
	return rt.mgr.Submit(e)
}

// MasterProc returns a Proc bound to the master process and clock for
// sequential sections (initialisation, verification, I/O).
func (rt *Runtime) MasterProc() *Proc {
	return &Proc{ID: 0, N: 1, rt: rt, host: rt.cluster.Master(), clk: rt.master}
}

// Restored reports whether this runtime was rebuilt from a checkpoint.
func (rt *Runtime) Restored() bool { return rt.restoring != nil }

// PrepareCheckpoint runs the section 4.3 checkpoint sequence at an
// adaptation point (no parallel construct may be executing): a garbage
// collection brings shared memory into a well-defined state, the
// master collects every page it lacks, and the region contents are
// dumped. Only the master has process state to save — the slaves are
// between forks and hold none.
func (rt *Runtime) PrepareCheckpoint() ([]RegionDump, dsm.TransferReport, error) {
	gc := rt.cluster.ForceGC(rt.Team())
	rep := rt.cluster.CollectToMaster()
	rep.Elapsed += gc
	rt.master.Advance(rep.Elapsed)
	var dumps []RegionDump
	for _, r := range rt.cluster.Regions() {
		data, err := rt.cluster.DumpRegion(r)
		if err != nil {
			return nil, rep, err
		}
		dumps = append(dumps, RegionDump{Name: r.Name, Bytes: r.Bytes, Data: data})
	}
	return dumps, rep, nil
}

// RestoreTeam re-establishes the checkpointed team on a freshly built
// runtime: the named hosts are spawned and activated, with all shared
// state at the master (recovery redistributes it through page faults).
func (rt *Runtime) RestoreTeam(team []dsm.HostID) error {
	if len(team) == 0 || team[0] != 0 {
		return fmt.Errorf("omp: restored team must start with the master, got %v", team)
	}
	for _, h := range team[1:] {
		if !rt.cluster.Host(h).Active() {
			if _, err := rt.cluster.Join(h); err != nil {
				return err
			}
		}
	}
	// Deactivate initial-team hosts not present in the checkpoint.
	for _, h := range rt.team {
		if h == 0 {
			continue
		}
		found := false
		for _, th := range team {
			if th == h {
				found = true
			}
		}
		if !found {
			if _, err := rt.cluster.NormalLeave(h, rt.cfg.LeaveStrategy); err != nil {
				return err
			}
		}
	}
	rt.team = append([]dsm.HostID(nil), team...)
	return nil
}

// BeginRestore puts the runtime into restore mode: subsequent Alloc
// calls must replay the checkpointed allocation sequence and are filled
// with the dumped contents. Used by the checkpoint package.
func (rt *Runtime) BeginRestore(dumps []RegionDump, masterTime simtime.Seconds, forks int64) {
	rt.restoring = dumps
	rt.allocIndex = 0
	rt.master.AdvanceTo(masterTime)
	rt.forks = forks
}

// restoreCheck validates one step of the allocation replay against the
// checkpointed region sequence. Sizes are compared in bytes, so any
// Element instantiation replays correctly as long as its element size
// times its length matches the dump. Mismatches wrap
// ErrRestoreMismatch.
func (rt *Runtime) restoreCheck(name string, bytes int) error {
	if rt.restoring == nil {
		return nil
	}
	if rt.allocIndex >= len(rt.restoring) {
		return fmt.Errorf("%w: allocation %q has no checkpointed region (only %d were dumped)",
			ErrRestoreMismatch, name, len(rt.restoring))
	}
	d := rt.restoring[rt.allocIndex]
	if d.Name != name || d.Bytes != bytes {
		return fmt.Errorf("%w: allocation %d is %q (%d bytes), checkpoint has %q (%d bytes); the program must replay the same allocations",
			ErrRestoreMismatch, rt.allocIndex, name, bytes, d.Name, d.Bytes)
	}
	return nil
}

func (rt *Runtime) restoreFill(r *dsm.Region) error {
	if rt.restoring == nil {
		return nil
	}
	d := rt.restoring[rt.allocIndex]
	rt.allocIndex++
	return rt.cluster.InstallRegion(r, d.Data)
}
