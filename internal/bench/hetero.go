package bench

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"nowomp/internal/adapt"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/page"
	"nowomp/internal/scenario"
	"nowomp/internal/shmem"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// The heterogeneity matrix exercises the per-machine/per-link cost
// model end to end: a uniform synthetic loop (every item costs one
// unit, so any divergence between schedules is caused by the machines,
// not the workload) runs across a matrix of NOW shapes under Static,
// Dynamic and Guided schedules.
//
//   - homog:        the paper's uniform switched LAN (nil model).
//   - unit-factors: an explicit all-1.0 model and explicit unit link
//     scales, priced by the same formulas as homog's implied 1.0.
//     Hetero() fails unless time, bytes and messages agree exactly.
//   - mixed-speed:  half the team at half CPU speed. Static is pinned
//     to the slowest block; Dynamic and Guided let fast machines claim
//     more chunks.
//   - one-loaded:   one machine carries background load 2.0 (slowdown
//     3x) for the whole run.
//   - slow-link:    the master<->machine-3 pair at 4x latency and a
//     quarter bandwidth; compute is untouched but machine 3 pays more
//     for every fault, barrier and claim.
//   - flash-load:   a load spike on machine 3 sized relative to the
//     baseline runtime, with adapt events derived by a LoadPolicy: the
//     machine leaves once the spike outlives the dwell and rejoins
//     after it ends — the paper's transparent-adaptivity story closed
//     end to end, with no hand-written schedule.
//
// The committed curves live in docs/hetero-bench.md.

// HeteroRow is one (scenario, schedule) measurement.
type HeteroRow struct {
	Scenario string
	Schedule string
	// Time is the virtual work-loop time (init excluded); MB the
	// work-loop traffic, with Bytes/Messages the exact counts the
	// -json report records.
	Time     simtime.Seconds
	MB       float64
	Bytes    int64
	Messages int64
	// Leaves and Joins count policy-driven adaptations in the run.
	Leaves, Joins int
	// Verified records that every item was computed exactly once.
	Verified bool
}

// heteroUnit is the per-item compute charge of the synthetic loop.
var heteroUnit = simtime.Micros(40)

// heteroProcs is the team size of the matrix: four processes leave
// room in the default 10-host pool for rejoin spares.
const heteroProcs = 4

// heteroDims picks item count and sweep count for the configured
// scale; the sweeps give the run enough adaptation points (and enough
// virtual seconds) for policy-driven events to mature mid-run.
func heteroDims(scale float64) (n, iters int) {
	iters = 40
	for float64(iters) < 150*scale {
		iters++
	}
	return loopItems(scale), iters
}

// nowShape is one NOW shape of the hetero and protocols matrices: the
// heterogeneity and adaptation fields of a scenario.Spec, under the
// name the tables print. mod is set on the one shape a canonical spec
// cannot express, explicit 1.0 factors (see unitFactors); protocol on
// hetero's custom shape, which follows Options.Protocol where the
// built-in shapes stay on tmk.
type nowShape struct {
	name                   string
	machines, loads, links string
	policy, schedule       string
	protocol               string
	mod                    func(*omp.Config)
}

// spec is the shape as a scenario: the matrix team on the options'
// pool under the given protocol, adaptive when the shape brings a
// policy or a schedule. The kernel is the cell's own body, so the
// spec names none.
func (sh nowShape) spec(opt Options, protocol string) scenario.Spec {
	return scenario.Spec{
		Procs: heteroProcs, Hosts: opt.Hosts, Grace: float64(opt.Grace), Protocol: protocol,
		Machines: sh.machines, Loads: sh.loads, Links: sh.links,
		Policy: sh.policy, Schedule: sh.schedule, Adaptive: sh.policy != "" || sh.schedule != "",
	}
}

// loadedMachine3 is background load 2.0 (slowdown 3x) on machine 3 for
// the whole run: hetero's one-loaded and, named for what machine 3 is
// to a home-based protocol, the protocols matrix's loaded-home.
const loadedMachine3 = "3=2@0"

// nowShapes returns the named shapes, in the order asked, from the one
// table both matrices draw on. The flash-load spike and the leave-join
// schedule are sized from the loop's homogeneous baseline time, so the
// same shapes reproduce at any scale; the sub-spec formats print the
// shortest decimal that parses back to the same float, so baseTime*0.2
// survives the string exactly.
func nowShapes(baseTime simtime.Seconds, names ...string) []nowShape {
	secs := func(t simtime.Seconds) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }
	table := []nowShape{
		{name: "homog"},
		{name: "unit-factors", mod: unitFactors},
		{name: "mixed-speed", machines: "2=0.5,3=0.5"},
		{name: "one-loaded", loads: loadedMachine3},
		{name: "loaded-home", loads: loadedMachine3},
		{name: "slow-link", links: "0-3=lat:4,bw:0.25"},
		{
			// A load-4 spike on machine 3 from 0.2T to 0.6T; the policy
			// sends it away once the spike outlives the dwell and brings
			// it back after the spike ends.
			name:   "flash-load",
			loads:  "3=4@" + secs(baseTime*0.2) + ",0@" + secs(baseTime*0.6),
			policy: adapt.FormatPolicy(adapt.LoadPolicy{High: 2, Low: 0.5, Dwell: baseTime * 0.05}),
		},
		{name: "leave-join", schedule: adapt.FormatSchedule([]adapt.Event{
			{Kind: adapt.KindLeave, Host: 2, At: baseTime * 0.2},
			{Kind: adapt.KindJoin, Host: 2, At: baseTime * 0.5},
		})},
	}
	var out []nowShape
	for _, name := range names {
		for _, sh := range table {
			if sh.name == name {
				out = append(out, sh)
			}
		}
	}
	return out
}

// unitFactors is the unit-factors shape: an explicit all-1.0 machine
// model and an explicitly configured unit link scale, so every charge
// multiplies by a looked-up 1.0 where homog's nil model implies it. It
// is a config hook because the spec's canonical form of this case is
// the empty string — the contract the shape exists to check.
func unitFactors(cfg *omp.Config) {
	m := machine.New(cfg.Hosts)
	for i := 0; i < cfg.Hosts; i++ {
		m.SetSpeed(simnet.MachineID(i), 1)
	}
	cfg.Machine = m
	cfg.Links = func(f *simnet.Fabric) error {
		f.SetDuplexScale(0, 1, 1, 1)
		return nil
	}
}

// arrayCell is the frame every synthetic cell shares: start the spec's
// runtime, allocate an n-item shared array, with zero set write it once
// in a static loop so its pages start spread over the team, measure
// work over it (allocation and that pass excluded) and check that item
// i ended as want(i). It returns the window and the finished runtime;
// label names the cell in a verification error.
func arrayCell(label string, spec scenario.Spec, mod func(*omp.Config), n int, zero bool,
	work func(rt *omp.Runtime, out *shmem.Array[float64]), want func(i int) float64) (measured, *omp.Runtime, error) {
	_, rt, _, err := spec.Start(mod)
	if err != nil {
		return measured{}, nil, err
	}
	out, err := omp.Alloc[float64](rt, "cell.out", n)
	if err != nil {
		return measured{}, nil, err
	}
	if zero {
		rt.For("cell.init", 0, n, func(p *omp.Proc, lo, hi int) {
			out.WriteRange(p.Mem(), lo, make([]float64, hi-lo))
		})
	}
	end := beginPhase(rt)
	work(rt, out)
	m := end()
	buf := make([]float64, n)
	out.ReadRange(rt.MasterProc().Mem(), 0, n, buf)
	for i, v := range buf {
		if v != want(i) {
			return m, rt, fmt.Errorf("bench: %s item %d = %g, want %g", label, i, v, want(i))
		}
	}
	return m, rt, nil
}

// loopCell measures the uniform synthetic loop — every item costs one
// unit, so any divergence between cells is caused by the NOW shape, the
// schedule or the protocol, not the workload — for one cell of either
// matrix.
func loopCell(opt Options, sh nowShape, sched omp.Schedule, protocol string) (measured, *omp.Runtime, error) {
	n, iters := heteroDims(opt.Scale)
	var opts []omp.ForOption
	switch sched {
	case omp.Dynamic:
		opts = append(opts, omp.WithSchedule(omp.Dynamic, max(16, n/64)))
	case omp.Guided:
		opts = append(opts, omp.WithSchedule(omp.Guided, 16))
	}
	// The loop writes 1 unconditionally every sweep, so verification
	// checks presence, not accumulation.
	label := fmt.Sprintf("loop %s/%s/%s", sh.name, sched, protocol)
	return arrayCell(label, sh.spec(opt, protocol), sh.mod, n, true, func(rt *omp.Runtime, out *shmem.Array[float64]) {
		for it := 0; it < iters; it++ {
			rt.For("loop.work", 0, n, func(p *omp.Proc, lo, hi int) {
				fillOnes(out, p.Mem(), lo, hi)
				p.ChargeUnits(hi-lo, heteroUnit)
			}, opts...)
		}
	}, func(int) float64 { return 1 })
}

// ones is a page of 1.0s, the value fillOnes stores.
var ones = func() (p [page.Size / 8]float64) {
	for i := range p {
		p[i] = 1
	}
	return p
}()

// fillOnes sets out[lo,hi) to 1 in place, span by span: the pages
// write-fault in the order a WriteRange of a staged slice would take
// them, without allocating that slice on every claimed chunk of the
// loop benches. The loop benches store each item once per interval
// (each chunk goes to one process, and the next claim's release or the
// construct's barrier closes its interval), so the spans are
// write-once and the pages need no twin. One memequal over a span's bytes finds it already all ones,
// as it is on every sweep after the first, and then nothing changed;
// otherwise the items that are not 1 are reported and a page of ones
// is copied in. Both passes run in the runtime's assembly: an
// element-wise store loop here ran 10-25% slower on bench.Protocols
// whenever code elsewhere in the binary changed size and moved the
// loop across a 64-byte boundary, while memequal's and memmove's speed
// does not depend on where the caller is linked.
func fillOnes(out *shmem.Array[float64], m shmem.Context, lo, hi int) {
	for lo < hi {
		span, ch := out.WriteSpanOnce(m, lo, hi)
		want := ones[:len(span)]
		if !bytes.Equal(floatBytes(span), floatBytes(want)) {
			for k, v := range span {
				if math.Float64bits(v) != math.Float64bits(1) {
					ch.Set(k)
				}
			}
			copy(span, want)
		}
		lo += len(span)
	}
}

// floatBytes views s's memory as bytes, in place.
func floatBytes(s []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
}

// Hetero runs the matrix. The flash-load shape derives its spike and
// policy from the homogeneous Static baseline time, so the same shape
// reproduces at any scale.
func Hetero(opt Options) ([]HeteroRow, error) {
	opt = opt.withDefaults()
	if opt.Hosts <= heteroProcs {
		return nil, fmt.Errorf("bench: hetero needs more than %d hosts, got %d", heteroProcs, opt.Hosts)
	}

	// Baseline first, as a cell of its own: the flash-load shape is
	// sized from its time.
	rows, err := runMatrix(opt, "hetero baseline", []nowShape{{name: "homog"}},
		func(sh nowShape) (HeteroRow, error) { return heteroRun(opt, sh, omp.Static) })
	if err != nil {
		return nil, err
	}
	base := rows[0]

	shapes := nowShapes(base.Time, "homog", "unit-factors", "mixed-speed", "one-loaded", "slow-link", "flash-load")
	if opt.Machines != "" || opt.Loads != "" || opt.Links != "" || opt.Policy != "" {
		// The tools' -machines/-load/-links/-policy flags land here as a
		// custom shape appended to the built-in matrix.
		shapes = append(shapes, nowShape{name: "custom", protocol: opt.Protocol,
			machines: opt.Machines, loads: opt.Loads, links: opt.Links, policy: opt.Policy})
	}

	type cell struct {
		sh    nowShape
		sched omp.Schedule
	}
	var cells []cell
	for _, sh := range shapes {
		for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
			if sh.name == "homog" && sched == omp.Static {
				continue // already measured as the baseline
			}
			cells = append(cells, cell{sh, sched})
		}
	}
	matrix, err := runMatrix(opt, "hetero", cells, func(c cell) (HeteroRow, error) { return heteroRun(opt, c.sh, c.sched) })
	if err != nil {
		return nil, err
	}
	rows = append(rows, matrix...)

	// Enforce the unit-factor contract: explicit 1.0 factors must
	// reproduce the nil-model baseline exactly, for every schedule. On
	// the discrete-event engine every schedule is fully deterministic,
	// so any difference at all is a real cost-model divergence.
	homog := map[string]HeteroRow{}
	for _, r := range rows {
		if r.Scenario == "homog" {
			homog[r.Schedule] = r
		}
	}
	for _, r := range rows {
		if b := homog[r.Schedule]; r.Scenario == "unit-factors" &&
			(r.Time != b.Time || r.Bytes != b.Bytes || r.Messages != b.Messages) {
			return nil, fmt.Errorf(
				"bench: unit-factors/%s diverged from homog: %.9fs vs %.9fs, %d vs %d bytes, %d vs %d messages",
				r.Schedule, float64(r.Time), float64(b.Time), r.Bytes, b.Bytes, r.Messages, b.Messages)
		}
	}
	return rows, nil
}

// heteroRun measures one (shape, schedule) cell.
func heteroRun(opt Options, sh nowShape, sched omp.Schedule) (HeteroRow, error) {
	row := HeteroRow{Scenario: sh.name, Schedule: sched.String()}
	m, rt, err := loopCell(opt, sh, sched, sh.protocol)
	if err != nil {
		return row, err
	}
	row.Time, row.Bytes, row.Messages = m.Time, m.Bytes, m.Messages
	row.MB = float64(row.Bytes) / 1e6
	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			if rec.Event.Kind == adapt.KindLeave {
				row.Leaves++
			} else {
				row.Joins++
			}
		}
	}
	row.Verified = true
	return row, nil
}

// writeHetero renders the matrix and records every cell.
func writeHetero(s *sheet, _ Options, rows []HeteroRow) {
	s.WriteString("Heterogeneous NOW matrix: uniform loop under three schedules\n")
	s.WriteString("(virtual work-loop time; leaves/joins are policy-driven adaptations)\n")
	tabulate(s, "scenario\tschedule\ttime\tMB\tleaves\tjoins\tverified", "%s\t%s\t%.3fs\t%.3f\t%d\t%d\t%v", rows,
		func(r HeteroRow) []any {
			return []any{r.Scenario, r.Schedule, float64(r.Time), r.MB, r.Leaves, r.Joins, r.Verified}
		}, func(r HeteroRow) Record {
			return Record{Scenario: fmt.Sprintf("hetero/%s/%s", r.Scenario, r.Schedule),
				Seconds: float64(r.Time), Bytes: r.Bytes, Messages: r.Messages}
		})
}
