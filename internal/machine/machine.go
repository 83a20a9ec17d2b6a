// Package machine models the heterogeneity of a real network of
// workstations: per-machine CPU speed factors, per-machine background
// load that varies over time, and (together with the per-link
// overrides on simnet.Fabric) per-link network characteristics. The
// calibrated simtime.CostModel remains the baseline — the homogeneous
// switched LAN of the paper's section 5.1 — and this package supplies
// the multipliers that turn it into a heterogeneous NOW: mixed-speed
// pools, machines slowed by their owners' work, and links of unequal
// quality.
//
// There is one arithmetic for every NOW. At unit factors (nil Model or
// all speeds 1.0 with no load, no link overrides) it reduces to exactly
// the baseline expressions, bit for bit, because multiplying or
// dividing by 1.0 is exact: a homogeneous run through this layer is
// indistinguishable from one that never heard of heterogeneity.
//
// Two scaling rules apply, chosen for determinism and fidelity:
//
//   - Compute charges (Proc.Charge in the omp layer) scale by the full
//     slowdown (1+load(t))/speed, integrated over the piecewise-
//     constant load trace, because background load competes with user
//     computation for the CPU.
//   - DSM software costs (twinning, diff creation/application, message
//     overhead) scale by 1/speed only: they are short kernel-side
//     bursts whose cost tracks the processor, not the instantaneous
//     load average.
package machine

import (
	"fmt"
	"sort"

	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Step is one breakpoint of a piecewise-constant load trace: from At
// on, the machine carries Load background load (1.0 = one competing
// CPU-bound process).
type Step struct {
	At   simtime.Seconds
	Load float64
}

// Trace is a piecewise-constant background-load trace. The zero value
// is an empty trace: load 0 forever. Load is 0 before the first step;
// the last step's load holds forever after.
type Trace struct {
	steps []Step
}

// NewTrace builds a trace from steps, which must have strictly
// ascending times and non-negative loads.
func NewTrace(steps ...Step) (Trace, error) {
	for i, s := range steps {
		if s.Load < 0 {
			return Trace{}, fmt.Errorf("machine: load %g at %v is negative", s.Load, s.At)
		}
		if s.At < 0 {
			return Trace{}, fmt.Errorf("machine: step time %v is negative", s.At)
		}
		if i > 0 && steps[i-1].At >= s.At {
			return Trace{}, fmt.Errorf("machine: step times must strictly ascend, got %v then %v",
				steps[i-1].At, s.At)
		}
	}
	return Trace{steps: append([]Step(nil), steps...)}, nil
}

// Steps returns a copy of the trace's breakpoints.
func (tr Trace) Steps() []Step { return append([]Step(nil), tr.steps...) }

// At returns the load at virtual instant t.
func (tr Trace) At(t simtime.Seconds) float64 {
	// Find the last step with At <= t.
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].At > t })
	if i == 0 {
		return 0
	}
	return tr.steps[i-1].Load
}

// Model gives each machine of a pool a CPU speed factor (1.0 = the
// baseline 300 MHz Pentium II of the paper) and a background-load
// trace. A nil *Model means a homogeneous pool.
type Model struct {
	speeds []float64
	loads  []Trace
}

// New returns a model for an n-machine pool, all speeds 1.0 and all
// load traces empty.
func New(n int) *Model {
	if n <= 0 {
		panic(fmt.Sprintf("machine: invalid machine count %d", n))
	}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	return &Model{speeds: speeds, loads: make([]Trace, n)}
}

// Machines returns the pool size the model describes.
func (m *Model) Machines() int { return len(m.speeds) }

func (m *Model) check(id simnet.MachineID) {
	if int(id) < 0 || int(id) >= len(m.speeds) {
		panic(fmt.Sprintf("machine: machine %d out of range [0,%d)", id, len(m.speeds)))
	}
}

// SetSpeed sets a machine's CPU speed factor; 2.0 is twice the
// baseline, 0.5 half. The factor must be positive.
func (m *Model) SetSpeed(id simnet.MachineID, f float64) {
	m.check(id)
	if f <= 0 {
		panic(fmt.Sprintf("machine: speed factor %g for machine %d must be positive", f, id))
	}
	m.speeds[id] = f
}

// Speed returns a machine's CPU speed factor.
func (m *Model) Speed(id simnet.MachineID) float64 {
	m.check(id)
	return m.speeds[id]
}

// SetLoad installs a machine's background-load trace.
func (m *Model) SetLoad(id simnet.MachineID, tr Trace) {
	m.check(id)
	m.loads[id] = tr
}

// Load returns a machine's trace.
func (m *Model) Load(id simnet.MachineID) Trace {
	m.check(id)
	return m.loads[id]
}

// LoadAt returns a machine's background load at virtual instant t.
func (m *Model) LoadAt(id simnet.MachineID, t simtime.Seconds) float64 {
	m.check(id)
	return m.loads[id].At(t)
}

// CPUScale returns the multiplier for short kernel-side software costs
// (twinning, diff scans, message handling): 1/speed, load-independent.
func (m *Model) CPUScale(id simnet.MachineID) float64 {
	if m == nil {
		return 1
	}
	m.check(id)
	return 1 / m.speeds[id]
}

// Compute returns the elapsed virtual time for `work` baseline seconds
// of computation started on machine id at instant `start`, integrating
// the piecewise-constant slowdown across trace breakpoints: work done
// while the owner's load is up takes proportionally longer. With speed
// 1 and an empty trace it returns work exactly (work/1).
func (m *Model) Compute(id simnet.MachineID, start, work simtime.Seconds) simtime.Seconds {
	if m == nil {
		return work
	}
	m.check(id)
	if work <= 0 {
		return 0
	}
	speed := m.speeds[id]
	tr := m.loads[id]
	if len(tr.steps) == 0 {
		return work / simtime.Seconds(speed)
	}

	now := start
	remaining := work
	var elapsed simtime.Seconds
	// Walk the segments from `start`; the segment after the last step
	// extends forever.
	i := sort.Search(len(tr.steps), func(i int) bool { return tr.steps[i].At > now })
	for {
		load := 0.0
		if i > 0 {
			load = tr.steps[i-1].Load
		}
		slow := simtime.Seconds((1 + load) / speed)
		if i >= len(tr.steps) {
			return elapsed + remaining*slow
		}
		seg := tr.steps[i].At - now
		capacity := seg / slow // baseline work the segment can absorb
		if capacity >= remaining {
			return elapsed + remaining*slow
		}
		elapsed += seg
		remaining -= capacity
		now = tr.steps[i].At
		i++
	}
}
