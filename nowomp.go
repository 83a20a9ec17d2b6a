// Package nowomp is the public API of the adaptive OpenMP-on-NOW
// runtime: a reproduction of Scherer, Lu, Gross and Zwaenepoel,
// "Transparent Adaptive Parallelism on NOWs using OpenMP" (PPoPP
// 1999). See the repository README for an overview and DESIGN.md for
// the system inventory.
//
// A minimal program:
//
//	rt, err := nowomp.New(nowomp.Config{Hosts: 8, Procs: 4, Adaptive: true})
//	if err != nil { ... }
//	a, err := nowomp.Alloc[float64](rt, "v", 1<<20)
//	rt.For("scale", 0, a.Len(), func(p *nowomp.Proc, lo, hi int) {
//		buf := make([]float64, hi-lo)
//		a.ReadRange(p.Mem(), lo, hi, buf)
//		for i := range buf { buf[i] *= 2 }
//		a.WriteRange(p.Mem(), lo, buf)
//	})
//
// Workstations join and leave the running computation via Submit;
// iteration re-partitioning is automatic because every For construct
// recomputes its partition from (process id, team size) at the fork,
// exactly like the SUIF-compiled TreadMarks programs of the paper.
package nowomp

import (
	"nowomp/internal/adapt"
	"nowomp/internal/apps"
	"nowomp/internal/ckpt"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/shmem"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Core runtime types.
type (
	// Config parameterises a runtime; see omp.Config for field
	// documentation.
	Config = omp.Config
	// Runtime executes one OpenMP program on the simulated NOW.
	Runtime = omp.Runtime
	// Proc is the per-process handle passed to parallel bodies.
	Proc = omp.Proc
	// AdaptationPoint records an applied adaptation for measurement.
	AdaptationPoint = omp.AdaptationPoint
)

// Virtual time.
type (
	// Seconds is virtual time; the simulation's clock unit.
	Seconds = simtime.Seconds
	// CostModel holds the calibrated NOW constants (section 5.1).
	CostModel = simtime.CostModel
)

// DefaultModel returns the cost model calibrated from the paper's
// measured constants.
func DefaultModel() CostModel { return simtime.Default() }

// Adaptation events.
type (
	// Event is a join or leave signal.
	Event = adapt.Event
	// EventKind distinguishes joins from leaves.
	EventKind = adapt.Kind
	// ReassignStrategy selects process-id reassignment.
	ReassignStrategy = adapt.ReassignStrategy
	// LeaveStrategy selects the normal-leave state handoff.
	LeaveStrategy = dsm.LeaveStrategy
	// HostID identifies a workstation in the pool.
	HostID = dsm.HostID
)

// Event kinds and strategies, re-exported for configuration.
const (
	Join               = adapt.KindJoin
	Leave              = adapt.KindLeave
	ShiftDown          = adapt.ShiftDown
	SwapLast           = adapt.SwapLast
	LeaveViaMaster     = dsm.LeaveViaMaster
	LeaveDirectHandoff = dsm.LeaveDirectHandoff
)

// DefaultGrace is the paper's 3-second leave grace period.
const DefaultGrace = adapt.DefaultGrace

// Coherence protocols. The DSM's coherence machinery is a pluggable
// layer (Config.Protocol): Tmk is the paper's TreadMarks homeless lazy
// release consistency and the default; HLRC is home-based LRC, where
// every page has a home that writers flush diffs to eagerly and
// readers fetch whole pages from; Hybrid classifies each page's
// sharing pattern and adapts between the two per page. See DESIGN.md
// "Coherence protocols" and "Adaptive coherence".
type (
	// ProtocolKind selects the DSM coherence protocol.
	ProtocolKind = dsm.ProtocolKind
)

// Protocol kinds for Config.Protocol.
const (
	// Tmk is TreadMarks-style homeless lazy release consistency (the
	// default).
	Tmk = dsm.Tmk
	// HLRC is home-based lazy release consistency.
	HLRC = dsm.HLRC
	// Hybrid is the adaptive per-page protocol: sharing-pattern
	// classification, home migration, and single-writer elision on an
	// HLRC-style home-based baseline.
	Hybrid = dsm.Hybrid
)

// ParseProtocol parses a protocol name ("tmk", "hlrc" or "hybrid"), as
// the tools' -protocol flag spells it.
func ParseProtocol(s string) (ProtocolKind, error) { return dsm.ParseProtocol(s) }

// Heterogeneous NOW modelling: per-machine CPU speed factors and
// background-load traces (Config.Machine), per-link overrides
// (Config.Links), and the load policy that derives join/leave events
// from the traces.
type (
	// MachineModel gives each machine a speed factor and a load trace.
	MachineModel = machine.Model
	// LoadTrace is a piecewise-constant background-load trace.
	LoadTrace = machine.Trace
	// LoadStep is one breakpoint of a trace.
	LoadStep = machine.Step
	// MachineID identifies a workstation on the fabric.
	MachineID = simnet.MachineID
	// Fabric is the simulated switched network (Config.Links target).
	Fabric = simnet.Fabric
	// LoadPolicy derives adapt events from load traces.
	LoadPolicy = adapt.LoadPolicy
)

// NewMachineModel returns an all-baseline model for an n-machine pool;
// configure it with SetSpeed/SetLoad or the parsers below.
func NewMachineModel(n int) *MachineModel { return machine.New(n) }

// NewLoadTrace builds a trace from steps with strictly ascending times.
func NewLoadTrace(steps ...LoadStep) (LoadTrace, error) { return machine.NewTrace(steps...) }

// ParseSpeeds applies a compact "ID=FACTOR,..." speed spec to a model.
func ParseSpeeds(m *MachineModel, spec string) error { return machine.ParseSpeeds(m, spec) }

// ParseLoads applies a compact "ID=LOAD@TIME,...;..." trace spec to a
// model.
func ParseLoads(m *MachineModel, spec string) error { return machine.ParseLoads(m, spec) }

// ParseLinks applies a compact "SRC-DST=lat:F,bw:F;..." link spec to a
// fabric (use inside Config.Links).
func ParseLinks(f *Fabric, spec string) error { return machine.ParseLinks(f, spec) }

// ParsePolicy parses a "high=H,low=L[,dwell=D]" load-policy spec.
func ParsePolicy(s string) (LoadPolicy, error) { return adapt.ParsePolicy(s) }

// ParseSchedule parses a "TIME:KIND:HOST[,...]" adapt-event schedule.
func ParseSchedule(s string) ([]Event, error) { return adapt.ParseSchedule(s) }

// FormatSchedule renders events back in ParseSchedule form.
func FormatSchedule(events []Event) string { return adapt.FormatSchedule(events) }

// Shared-memory views: Array and Matrix over any Element type.
type (
	// Mem is the access context carried by a Proc.
	Mem = shmem.Context
	// Element is the constraint on shared-view element types.
	Element = shmem.Element
	// Array is a shared vector of T.
	Array[T Element] = shmem.Array[T]
	// Matrix is a shared row-major matrix of T.
	Matrix[T Element] = shmem.Matrix[T]
)

// Alloc allocates a shared vector of n elements of T; on a restored
// runtime it rebinds to (and reloads) the checkpointed region instead.
// Go has no generic methods, so the allocators take the runtime as
// their first argument.
func Alloc[T Element](rt *Runtime, name string, n int) (*Array[T], error) {
	return omp.Alloc[T](rt, name, n)
}

// AllocMatrix allocates a shared rows x cols matrix of T (see Alloc).
func AllocMatrix[T Element](rt *Runtime, name string, rows, cols int) (*Matrix[T], error) {
	return omp.AllocMatrix[T](rt, name, rows, cols)
}

// Loop scheduling. rt.For(name, lo, hi, body, opts...) is the unified
// parallel-loop entry point; these configure it.
type (
	// Schedule identifies an iteration-scheduling policy for For.
	Schedule = omp.Schedule
	// ForOption configures one For construct.
	ForOption = omp.ForOption
)

// Schedules for WithSchedule.
const (
	Static      = omp.Static
	StaticChunk = omp.StaticChunk
	Dynamic     = omp.Dynamic
	Guided      = omp.Guided
)

// WithSchedule selects the iteration schedule of a For construct;
// chunk is the (minimum, for Guided) chunk size.
func WithSchedule(s Schedule, chunk int) ForOption { return omp.WithSchedule(s, chunk) }

// WithReduce attaches a floating-point reduction to a For construct;
// bodies contribute via Proc.Contribute and For returns the combined
// value.
func WithReduce(identity float64, op func(a, b float64) float64) ForOption {
	return omp.WithReduce(identity, op)
}

// Tasking. rt.Tasks(name, root) runs one work-stealing task
// region: the root task executes on the master, task bodies spawn
// children with p.Spawn and wait for them with p.TaskWait, and idle
// processes steal — with steal traffic, closure shipping and the
// release/acquire consistency of task handoffs all priced through the
// simulated fabric. Task scheduling points are adaptation points, so
// join/leave events apply mid-tree and deques re-home onto the new
// team.
type (
	// TaskProc is the per-process handle passed to task bodies.
	TaskProc = omp.TaskProc
	// TaskStats reports a region's scheduling activity (steals,
	// re-homed tasks, migrated executions, adaptations).
	TaskStats = omp.TaskStats
)

// Sentinel errors for errors.Is.
var (
	// ErrNotAdaptive reports an adapt event on a non-adaptive runtime.
	ErrNotAdaptive = omp.ErrNotAdaptive
	// ErrRestoreMismatch reports an allocation replay that diverged
	// from the checkpointed sequence.
	ErrRestoreMismatch = omp.ErrRestoreMismatch
)

// New creates a runtime on a fresh simulated NOW.
func New(cfg Config) (*Runtime, error) { return omp.New(cfg) }

// Checkpointing (section 4.3).
type (
	// Restored gives access to application state saved in a checkpoint.
	Restored = ckpt.Restored
)

// Checkpoint writes a checkpoint of the runtime to path at an
// adaptation point; state carries the master program's resumption
// data (for example its outer iteration counter).
func Checkpoint(rt *Runtime, path string, state map[string]any) error {
	_, err := ckpt.SaveFile(rt, path, state)
	return err
}

// Restore rebuilds a runtime from the checkpoint at path. The program
// must replay its allocations and then resume from the restored state.
func Restore(cfg Config, path string) (*Runtime, *Restored, error) {
	return ckpt.RestoreFile(cfg, path)
}

// Application kernels of the paper's evaluation, exposed for examples
// and tools.
type (
	// AppResult summarises one kernel run (Table 1 columns).
	AppResult = apps.Result
	// JacobiConfig parameterises the Jacobi kernel.
	JacobiConfig = apps.JacobiConfig
	// GaussConfig parameterises Gaussian elimination.
	GaussConfig = apps.GaussConfig
	// FFT3DConfig parameterises the 3-D FFT.
	FFT3DConfig = apps.FFT3DConfig
	// NBFConfig parameterises the non-bonded-force kernel.
	NBFConfig = apps.NBFConfig
	// SortConfig parameterises the parallel-mergesort task kernel.
	SortConfig = apps.SortConfig
	// QuadConfig parameterises the adaptive-quadrature task kernel.
	QuadConfig = apps.QuadConfig
)

// Kernel entry points. RunMergesort and RunQuadrature are the
// irregular task-parallel kernels; the rest are the paper's Table 1
// loop kernels.
var (
	RunJacobi     = apps.RunJacobi
	RunGauss      = apps.RunGauss
	RunFFT3D      = apps.RunFFT3D
	RunNBF        = apps.RunNBF
	RunMergesort  = apps.RunMergesort
	RunQuadrature = apps.RunQuadrature

	// MergesortReference and QuadratureReference compute the
	// sequential checksums the task kernels reproduce bit for bit.
	MergesortReference  = apps.MergesortReference
	QuadratureReference = apps.QuadratureReference
)

// Default kernel configurations at the paper's problem sizes.
func DefaultJacobi() JacobiConfig { return apps.DefaultJacobi() }

// DefaultGauss returns the paper's Gauss configuration.
func DefaultGauss() GaussConfig { return apps.DefaultGauss() }

// DefaultFFT3D returns the paper's 3D-FFT configuration.
func DefaultFFT3D() FFT3DConfig { return apps.DefaultFFT3D() }

// DefaultNBF returns the paper's NBF configuration.
func DefaultNBF() NBFConfig { return apps.DefaultNBF() }

// DefaultSort returns the reference mergesort configuration.
func DefaultSort() SortConfig { return apps.DefaultSort() }

// DefaultQuad returns the reference quadrature configuration.
func DefaultQuad() QuadConfig { return apps.DefaultQuad() }
