// Package adapt implements the transparent adaptation machinery of
// sections 3 and 4 of Scherer et al. (PPoPP 1999): join and leave
// events submitted at any time, processed at the next adaptation point
// (the boundary of a parallel construct); grace periods that decide
// between cheap normal leaves and urgent leaves by migration; process-
// id reassignment; and the bookkeeping the evaluation section measures.
//
// The manager is deliberately mechanism-only: how events are generated
// (daemons, load sensors, schedules) is outside its scope, exactly as
// in the paper.
package adapt

import (
	"fmt"
	"math"
	"slices"

	"nowomp/internal/dsm"
	"nowomp/internal/migrate"
	"nowomp/internal/simtime"
)

// Kind distinguishes join and leave events.
type Kind int

const (
	// KindJoin announces that a workstation has become available.
	KindJoin Kind = iota
	// KindLeave announces that a workstation wants its CPU back.
	KindLeave
)

func (k Kind) String() string {
	if k == KindJoin {
		return "join"
	}
	return "leave"
}

// Event is one adapt-event signal.
type Event struct {
	Kind Kind
	// Host is the workstation joining or leaving.
	Host dsm.HostID
	// At is the virtual instant the event is raised.
	At simtime.Seconds
	// Grace overrides the manager's default grace period for a leave;
	// zero means use the default. The paper stresses that the grace
	// period can be node-specific and even time-of-day dependent.
	Grace simtime.Seconds
}

// Config parameterises the manager.
type Config struct {
	// DefaultGrace is the leave grace period when an event does not
	// carry its own; the paper's experiments use 3 seconds.
	DefaultGrace simtime.Seconds
	// Strategy selects the normal-leave state handoff.
	Strategy dsm.LeaveStrategy
	// Reassign selects the process-id reassignment strategy.
	Reassign ReassignStrategy
}

// DefaultGrace is the grace period used by the paper's measurements.
const DefaultGrace = simtime.Seconds(3.0)

// Record is one applied adapt event, as logged for the evaluation.
type Record struct {
	Event    Event
	Urgent   bool
	Plan     *migrate.Plan // set for urgent leaves
	When     simtime.Seconds
	Transfer dsm.TransferReport
}

// pending wraps a submitted event with its processing state.
type pending struct {
	ev       Event
	migrated bool
	plan     *migrate.Plan
}

// Manager queues adapt events and applies them at adaptation points.
// It belongs to one run: Submit is called from the master's goroutine,
// and the apply entry points by the OpenMP runtime with all processes
// parked.
type Manager struct {
	cfg     Config
	pending []*pending
	log     []Record
}

// NewManager returns a manager with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.DefaultGrace <= 0 {
		cfg.DefaultGrace = DefaultGrace
	}
	return &Manager{cfg: cfg}
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Submit queues an event. Leave events for the master are rejected:
// the master can migrate but cannot perform a normal leave (the
// paper's current limitation, section 4.4). So are the times and grace
// periods ParseSchedule refuses: a negative or non-finite time, and a
// negative or non-finite grace (zero means the default).
func (m *Manager) Submit(e Event) error {
	if e.Kind == KindLeave && e.Host == 0 {
		return fmt.Errorf("adapt: the master process cannot leave")
	}
	if e.At < 0 || !finite(e.At) {
		return fmt.Errorf("adapt: event time %v is negative or not finite", e.At)
	}
	if e.Grace < 0 || !finite(e.Grace) {
		return fmt.Errorf("adapt: grace period %v is negative or not finite", e.Grace)
	}
	m.pending = append(m.pending, &pending{ev: e})
	return nil
}

func finite(s simtime.Seconds) bool { return !math.IsNaN(float64(s)) && !math.IsInf(float64(s), 0) }

// PendingCount returns the number of events not yet applied.
func (m *Manager) PendingCount() int { return len(m.pending) }

// Log returns the applied-event records in application order.
func (m *Manager) Log() []Record { return slices.Clone(m.log) }

func (m *Manager) grace(e Event) simtime.Seconds {
	if e.Grace > 0 {
		return e.Grace
	}
	return m.cfg.DefaultGrace
}

// AdjustJoin is called when a parallel phase's processes have produced
// their barrier-arrival times, before the join completes. Leave events
// whose grace period expires before their process reaches the
// adaptation point become urgent: the process image migrates to
// another team member's machine and the multiplexing model adjusts the
// arrivals (Fig. 2c). A host migrates once: a second urgent leave of a
// host that has migrated is left to classify, which drops it. Returns
// the executed migration plans.
func (m *Manager) AdjustJoin(c *dsm.Cluster, team []dsm.HostID, arrivals []simtime.Seconds) []migrate.Plan {
	var plans []migrate.Plan
	for _, p := range m.pending {
		if p.ev.Kind != KindLeave || p.migrated {
			continue
		}
		idx := -1
		for i, h := range team {
			if h == p.ev.Host {
				idx = i
			}
		}
		if idx < 0 {
			continue // host not in this team
		}
		deadline := p.ev.At + m.grace(p.ev)
		if p.ev.At > arrivals[idx] || deadline >= arrivals[idx] {
			continue // event in the future, or the point is reached in time
		}
		if m.migrated(p.ev.Host) {
			continue
		}
		target := team[(idx+1)%len(team)]
		plan := migrate.New(c, p.ev.Host, target, deadline)
		plan.Execute(c)
		plan.AdjustArrivals(team, arrivals)
		p.migrated = true
		p.plan = &plan
		plans = append(plans, plan)
	}
	return plans
}

// migrated reports whether a pending leave has migrated host h.
func (m *Manager) migrated(h dsm.HostID) bool {
	return slices.ContainsFunc(m.pending, func(p *pending) bool { return p.migrated && p.ev.Host == h })
}

// PointResult reports what an adaptation point did.
type PointResult struct {
	// Team is the process-id-to-host mapping for the next fork.
	Team []dsm.HostID
	// Elapsed is the time the adaptation point added beyond a plain
	// fork: garbage collection plus state transfer.
	Elapsed simtime.Seconds
	// Applied lists the events handled here.
	Applied []Record
	// GCElapsed is the garbage-collection share of Elapsed.
	GCElapsed simtime.Seconds
}

// classify splits the pending queue into matured-and-eligible leaves
// and joins plus the untouched remainder. eligible (nil = all) lets a
// caller hold back specific events: the task runtime defers a leave
// until the departing process holds no task state, while joins and
// other leaves proceed. A host leaves or joins at most once a point: of
// two matured events of one kind for one host, the first in submission
// order is kept — unless the later one migrated the host, which makes it
// the urgent leave the point applies — and the other is dropped, in
// neither the result nor the remainder.
func (m *Manager) classify(model simtime.CostModel, team []dsm.HostID, now simtime.Seconds,
	eligible func(Event) bool) (leaves, joins, rest []*pending) {

	inTeam := make(map[dsm.HostID]bool, len(team))
	for _, h := range team {
		inTeam[h] = true
	}
	for _, p := range m.pending {
		ok := eligible == nil || eligible(p.ev)
		same := func(q *pending) bool { return q.ev.Host == p.ev.Host }
		switch {
		case ok && p.ev.Kind == KindLeave && p.ev.At <= now && inTeam[p.ev.Host]:
			if i := slices.IndexFunc(leaves, same); i >= 0 {
				if p.migrated {
					leaves[i] = p
				}
				continue
			}
			leaves = append(leaves, p)
		case ok && p.ev.Kind == KindJoin && p.ev.At+model.SpawnTime+model.ConnectSetupTime <= now && !inTeam[p.ev.Host]:
			// The new process was spawned asynchronously when the event
			// arrived; it is ready once its connections are set up.
			if !slices.ContainsFunc(joins, same) {
				joins = append(joins, p)
			}
		default:
			rest = append(rest, p)
		}
	}
	return leaves, joins, rest
}

// HasEligible reports whether AtAdaptationPoint would apply at
// least one event at virtual instant now under the given eligibility
// filter. The task runtime polls it at every task scheduling point and
// only pays for an adaptation (interval flushes, GC) when one will
// actually happen.
func (m *Manager) HasEligible(c *dsm.Cluster, team []dsm.HostID, now simtime.Seconds, eligible func(Event) bool) bool {
	leaves, joins, _ := m.classify(c.Model(), team, now, eligible)
	return len(leaves) > 0 || len(joins) > 0
}

// AtAdaptationPoint applies the matured events the eligibility filter
// accepts (nil accepts all; the others stay queued for a later point) at
// a fork boundary or a task scheduling point: first one garbage
// collection (shared by every event processed here — which is why
// simultaneous adapt events are cheaper than successive ones, section
// 5.4), then normal leaves, then joins, then process-id reassignment.
// All processes must be parked.
func (m *Manager) AtAdaptationPoint(c *dsm.Cluster, team []dsm.HostID, now simtime.Seconds,
	eligible func(Event) bool) (PointResult, error) {

	leaves, joins, rest := m.classify(c.Model(), team, now, eligible)
	if len(leaves) == 0 && len(joins) == 0 {
		return PointResult{Team: team}, nil
	}
	m.pending = rest

	res := PointResult{}
	res.GCElapsed = c.ForceGC(team)
	res.Elapsed = res.GCElapsed

	leaving := make(map[dsm.HostID]bool, len(leaves))
	for _, p := range leaves {
		rep, err := c.NormalLeave(p.ev.Host, m.cfg.Strategy)
		if err != nil {
			return PointResult{}, fmt.Errorf("adapt: leave of host %d: %w", p.ev.Host, err)
		}
		res.Elapsed += rep.Elapsed
		leaving[p.ev.Host] = true
		rec := Record{Event: p.ev, Urgent: p.migrated, Plan: p.plan, When: now, Transfer: rep}
		res.Applied = append(res.Applied, rec)
		m.log = append(m.log, rec)
	}
	var joiners []dsm.HostID
	for _, p := range joins {
		rep, err := c.Join(p.ev.Host)
		if err != nil {
			return PointResult{}, fmt.Errorf("adapt: join of host %d: %w", p.ev.Host, err)
		}
		res.Elapsed += rep.Elapsed
		joiners = append(joiners, p.ev.Host)
		rec := Record{Event: p.ev, When: now, Transfer: rep}
		res.Applied = append(res.Applied, rec)
		m.log = append(m.log, rec)
	}

	res.Team = Reassign(team, leaving, joiners, m.cfg.Reassign)
	return res, nil
}
