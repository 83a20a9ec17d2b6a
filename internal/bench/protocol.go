package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"nowomp/internal/adapt"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/page"
	"nowomp/internal/shmem"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// The protocol experiment quantifies the trade-off the pluggable
// coherence layer exists to expose: TreadMarks homeless LRC (tmk)
// versus home-based LRC (hlrc) versus the adaptive per-page hybrid,
// under the same kernels, schedules and NOW shapes. Four kernels probe
// the sharing regimes the literature describes:
//
//   - loop: the uniform synthetic loop of the hetero matrix, under
//     Static, Dynamic and Guided schedules. Writers are disjoint, so
//     Tmk's lazy diffs are near-optimal; HLRC pays whole-page fetches
//     for boundary pages and an eager flush per written page, and the
//     gap widens on the claim-based schedules whose shared counter
//     bounces between processes. Scenarios bend the shape: slow-link
//     makes fetches from homes behind the bent link expensive,
//     loaded-home slows a home machine's compute, mixed-speed makes
//     the dynamic schedules rebalance, and leave-join exercises
//     re-homing at adaptation points.
//   - migratory: a lock-protected record (most of one page) updated in
//     turn by every process — the migratory-sharing pattern. Under Tmk
//     each acquirer chases the diff chains of every writer since its
//     last visit, so bytes grow with the team size; under HLRC each
//     release pushes one diff to the home and each acquirer pulls one
//     page. HLRC transfers fewer bytes here — Protocols() fails if it
//     ever stops winning, the analogue of the hetero matrix's
//     bit-identity contract.
//   - prodcons: one producer sparsely updates a multi-page buffer each
//     round and every other process reads it back — the producer-
//     consumer pattern. Tmk's consumers fetch the producer's sparse
//     diffs; HLRC's consumers re-pull whole pages for a few changed
//     words; hybrid migrates the homes to the producer and serves
//     consumers from its retained-diff windows.
//   - falseshare: every process owns a word-interleaved stripe of the
//     same pages and a skewed writer set rewrites stripes each round —
//     false sharing with a dominant writer. The hybrid classifier tags
//     the pages falsely-shared and pays one page transfer to migrate
//     each home to the dominant writer.
//
// Protocols() also enforces the hybrid byte contract: at most the
// better parent on the migratory and prodcons cells, and within 5% of
// the better parent everywhere else.
//
// The committed curves live in docs/protocol-bench.md.

// ProtoRow is one (kernel, scenario, schedule, protocol) measurement.
type ProtoRow struct {
	Kernel   string
	Scenario string
	Schedule string
	Protocol string
	// Time is the virtual work-phase time (init excluded); Bytes and
	// Messages its fabric traffic.
	Time     simtime.Seconds
	Bytes    int64
	Messages int64
	// Diffs counts Tmk diff fetches, Flushes HLRC home pushes: the
	// mechanical signature of each protocol (hybrid records both).
	Diffs   int64
	Flushes int64
	// Coherence is the hybrid classification and adaptation record for
	// the cell (all zero under Tmk and HLRC).
	Coherence CoherenceStats
	// Verified records that the kernel's result was checked.
	Verified bool
}

// protoProcs is the team size of the matrix.
const protoProcs = 4

// protoScenario is one NOW shape of the protocol matrix.
type protoScenario struct {
	name   string
	model  func(hosts int) *machine.Model
	links  func(*simnet.Fabric) error
	events []adapt.Event
}

// protoScenarios builds the matrix shapes. The leave-join schedule is
// sized from the loop kernel's homogeneous baseline time T so the
// events mature at any scale.
func protoScenarios(baseTime simtime.Seconds) []protoScenario {
	return []protoScenario{
		{name: "homog"},
		{
			name: "slow-link",
			links: func(f *simnet.Fabric) error {
				f.SetDuplexScale(0, 3, 4, 0.25)
				return nil
			},
		},
		{
			name: "loaded-home",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				tr, err := machine.NewTrace(machine.Step{At: 0, Load: 2})
				if err != nil {
					panic(err)
				}
				m.SetLoad(3, tr)
				return m
			},
		},
		{
			name: "mixed-speed",
			model: func(hosts int) *machine.Model {
				m := machine.New(hosts)
				m.SetSpeed(2, 0.5)
				m.SetSpeed(3, 0.5)
				return m
			},
		},
		{
			name: "leave-join",
			events: []adapt.Event{
				{Kind: adapt.KindLeave, Host: 2, At: baseTime * 0.2},
				{Kind: adapt.KindJoin, Host: 2, At: baseTime * 0.5},
			},
		},
	}
}

// protoKinds is the matrix's protocol axis.
var protoKinds = []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC, dsm.Hybrid}

// Protocols runs the protocol matrix and enforces the byte contracts:
// on the migratory kernel HLRC must transfer fewer bytes than Tmk in
// every scenario, and hybrid must transfer at most what the better
// parent does on the migratory and prodcons cells and stay within 5%
// of the better parent on every other cell.
func Protocols(opt Options) ([]ProtoRow, error) {
	opt = opt.withDefaults()
	if opt.Hosts <= protoProcs {
		return nil, fmt.Errorf("bench: protocols needs more than %d hosts, got %d", protoProcs, opt.Hosts)
	}

	// Baseline sizes the leave-join schedule; every other cell of the
	// matrix is an independent run and fans out across Options.Parallel
	// workers (this is the hottest table to regenerate, and the one the
	// -parallel flag exists for).
	base, err := protoLoopRun(opt, protoScenario{name: "homog"}, omp.Static, dsm.Tmk)
	if err != nil {
		return nil, err
	}
	rows := []ProtoRow{base}

	type cell struct {
		sc     protoScenario
		sched  omp.Schedule
		proto  dsm.ProtocolKind
		kernel string
	}
	var cells []cell
	for _, sc := range protoScenarios(base.Time) {
		for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
			if len(sc.events) > 0 && sched != omp.Static {
				continue // the adaptation scenario sticks to the deterministic schedule
			}
			for _, proto := range protoKinds {
				if sc.name == "homog" && sched == omp.Static && proto == dsm.Tmk {
					continue // already measured as the baseline
				}
				cells = append(cells, cell{sc: sc, sched: sched, proto: proto, kernel: "loop"})
			}
		}
	}
	// The sharing-pattern kernels, every protocol under each shape (the
	// lock and stripe regions have no adaptation points).
	for _, kernel := range []string{"migratory", "prodcons", "falseshare"} {
		for _, sc := range protoScenarios(base.Time) {
			if len(sc.events) > 0 {
				continue
			}
			for _, proto := range protoKinds {
				cells = append(cells, cell{sc: sc, proto: proto, kernel: kernel})
			}
		}
	}

	cellRows := make([]ProtoRow, len(cells))
	err = opt.runMatrix("protocols", len(cells), func(i int) error {
		var row ProtoRow
		var err error
		switch cells[i].kernel {
		case "loop":
			row, err = protoLoopRun(opt, cells[i].sc, cells[i].sched, cells[i].proto)
		case "migratory":
			row, err = migratoryRun(opt, cells[i].sc, cells[i].proto)
		case "prodcons":
			row, err = prodConsRun(opt, cells[i].sc, cells[i].proto)
		case "falseshare":
			row, err = falseShareRun(opt, cells[i].sc, cells[i].proto)
		}
		cellRows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, cellRows...)

	// Assemble the per-(kernel, scenario, schedule) byte totals and
	// enforce the contracts.
	byProto := map[string]map[string]int64{}
	for _, r := range rows {
		key := r.Kernel + "/" + r.Scenario + "/" + r.Schedule
		if byProto[key] == nil {
			byProto[key] = map[string]int64{}
		}
		byProto[key][r.Protocol] = r.Bytes
	}
	for key, bytes := range byProto {
		tmk, hlrc, hybrid := bytes["tmk"], bytes["hlrc"], bytes["hybrid"]
		if strings.HasPrefix(key, "migratory/") && hlrc >= tmk {
			return nil, fmt.Errorf(
				"bench: %s: hlrc transferred %d bytes, tmk %d; home-based LRC must beat diff chasing on migratory sharing",
				key, hlrc, tmk)
		}
		better := min(tmk, hlrc)
		switch {
		case strings.HasPrefix(key, "migratory/") || strings.HasPrefix(key, "prodcons/"):
			if hybrid > better {
				return nil, fmt.Errorf(
					"bench: %s: hybrid transferred %d bytes, better parent %d; the adaptive protocol must not lose on its target patterns",
					key, hybrid, better)
			}
		default:
			if hybrid > better+better/20 {
				return nil, fmt.Errorf(
					"bench: %s: hybrid transferred %d bytes, better parent %d; the adaptive protocol must stay within 5%% everywhere",
					key, hybrid, better)
			}
		}
	}
	return rows, nil
}

// fillOnes sets out[lo,hi) to 1 in place, span by span: the pages
// write-fault and twin in the order a WriteRange of a staged slice
// would take them, without allocating that slice on every claimed
// chunk of the loop benches.
func fillOnes(out *shmem.Array[float64], m shmem.Context, lo, hi int) {
	for lo < hi {
		span := out.WriteSpan(m, lo, hi)
		for i := range span {
			span[i] = 1
		}
		lo += len(span)
	}
}

// protoLoopRun measures the uniform loop for one matrix cell,
// mirroring the hetero experiment's kernel so the two matrices are
// comparable.
func protoLoopRun(opt Options, sc protoScenario, sched omp.Schedule, proto dsm.ProtocolKind) (ProtoRow, error) {
	n, iters := heteroDims(opt.Scale)
	row := ProtoRow{Kernel: "loop", Scenario: sc.name, Schedule: sched.String(), Protocol: proto.String()}

	var mm *machine.Model
	if sc.model != nil {
		mm = sc.model(opt.Hosts)
	}
	cfg := omp.Config{
		Hosts:    opt.Hosts,
		Procs:    protoProcs,
		Machine:  mm,
		Links:    sc.links,
		Protocol: proto,
	}
	if len(sc.events) > 0 {
		cfg.Adaptive = true
		cfg.Grace = opt.Grace
	}
	rt, err := omp.New(cfg)
	if err != nil {
		return row, err
	}
	for _, e := range sc.events {
		if err := rt.Submit(e); err != nil {
			return row, err
		}
	}

	out, err := omp.Alloc[float64](rt, "proto.out", n)
	if err != nil {
		return row, err
	}
	rt.For("proto.init", 0, n, func(p *omp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		out.WriteRange(p.Mem(), lo, buf)
	})

	var opts []omp.ForOption
	switch sched {
	case omp.Dynamic:
		opts = append(opts, omp.WithSchedule(omp.Dynamic, max(16, n/64)))
	case omp.Guided:
		opts = append(opts, omp.WithSchedule(omp.Guided, 16))
	}

	t0 := rt.Now()
	net0 := rt.Cluster().Fabric().Snapshot()
	st0 := rt.Cluster().Stats().Snapshot()
	for it := 0; it < iters; it++ {
		rt.For("proto.work", 0, n, func(p *omp.Proc, lo, hi int) {
			fillOnes(out, p.Mem(), lo, hi)
			p.ChargeUnits(hi-lo, heteroUnit)
		}, opts...)
	}
	row.Time = rt.Now() - t0
	window := rt.Cluster().Fabric().Snapshot().Sub(net0)
	row.Bytes = window.TotalBytes()
	row.Messages = window.TotalMessages()
	fillProtoStats(&row, rt.Cluster().Stats().Snapshot().Sub(st0))

	mp := rt.MasterProc()
	buf := make([]float64, n)
	out.ReadRange(mp.Mem(), 0, n, buf)
	for i, v := range buf {
		if v != 1 {
			return row, fmt.Errorf("bench: proto loop %s/%s/%s item %d = %g, want 1",
				sc.name, sched, proto, i, v)
		}
	}
	row.Verified = true
	return row, nil
}

// Migratory kernel parameters: each critical section rewrites migWords
// words (most of the one-page record), and every process takes the
// lock migRounds times.
const (
	migWords  = 448
	migRounds = 8
	migLock   = 41
)

// migratoryRun measures the migratory-lock kernel for one cell.
func migratoryRun(opt Options, sc protoScenario, proto dsm.ProtocolKind) (ProtoRow, error) {
	row := ProtoRow{Kernel: "migratory", Scenario: sc.name, Schedule: "-", Protocol: proto.String()}

	var mm *machine.Model
	if sc.model != nil {
		mm = sc.model(opt.Hosts)
	}
	rt, err := omp.New(omp.Config{
		Hosts:    opt.Hosts,
		Procs:    protoProcs,
		Machine:  mm,
		Links:    sc.links,
		Protocol: proto,
	})
	if err != nil {
		return row, err
	}
	rec, err := omp.Alloc[float64](rt, "mig.rec", 512)
	if err != nil {
		return row, err
	}

	t0 := rt.Now()
	net0 := rt.Cluster().Fabric().Snapshot()
	st0 := rt.Cluster().Stats().Snapshot()
	rt.Parallel("mig.work", func(p *omp.Proc) {
		buf := make([]float64, migWords)
		for round := 0; round < migRounds; round++ {
			p.Lock(migLock)
			rec.ReadRange(p.Mem(), 0, migWords, buf)
			for i := range buf {
				buf[i]++
			}
			rec.WriteRange(p.Mem(), 0, buf)
			p.ChargeUnits(migWords, simtime.Micros(1))
			p.Unlock(migLock)
		}
	})
	row.Time = rt.Now() - t0
	window := rt.Cluster().Fabric().Snapshot().Sub(net0)
	row.Bytes = window.TotalBytes()
	row.Messages = window.TotalMessages()
	fillProtoStats(&row, rt.Cluster().Stats().Snapshot().Sub(st0))

	// Every process incremented every record word migRounds times.
	want := float64(protoProcs * migRounds)
	mp := rt.MasterProc()
	buf := make([]float64, migWords)
	rec.ReadRange(mp.Mem(), 0, migWords, buf)
	for i, v := range buf {
		if v != want {
			return row, fmt.Errorf("bench: migratory %s/%s word %d = %g, want %g",
				sc.name, proto, i, v, want)
		}
	}
	row.Verified = true
	return row, nil
}

// fillProtoStats records a cell's mechanical signature (diff fetches,
// home pushes) and its hybrid coherence record from the stats window.
func fillProtoStats(row *ProtoRow, stats dsm.StatsSnapshot) {
	row.Diffs = stats.DiffFetches.Load()
	row.Flushes = stats.HomeFlushes.Load()
	row.Coherence = CoherenceStats{
		PagesSingleWriter:     stats.PagesSingleWriter.Load(),
		PagesProducerConsumer: stats.PagesProducerConsumer.Load(),
		PagesMigratory:        stats.PagesMigratory.Load(),
		PagesFalselyShared:    stats.PagesFalselyShared.Load(),
		HomeMigrations:        stats.HomeMigrations.Load(),
		HomeMigrationBytes:    stats.HomeMigrationBytes.Load(),
		ElidedTwins:           stats.ElidedTwins.Load(),
		ElidedDiffs:           stats.ElidedDiffs.Load(),
	}
}

// pageWords is the float64 capacity of one DSM page.
const pageWords = page.Size / 8

// Producer-consumer kernel parameters: one producer rewrites every
// pcStride-th word of a pcPages-page buffer each round, and every
// other process reads the buffer back — sparse updates that HLRC can
// only serve as whole pages.
const (
	pcPages  = 6
	pcStride = 64
	pcRounds = 10
)

// prodConsRun measures the producer-consumer kernel for one cell.
func prodConsRun(opt Options, sc protoScenario, proto dsm.ProtocolKind) (ProtoRow, error) {
	row := ProtoRow{Kernel: "prodcons", Scenario: sc.name, Schedule: "-", Protocol: proto.String()}

	var mm *machine.Model
	if sc.model != nil {
		mm = sc.model(opt.Hosts)
	}
	rt, err := omp.New(omp.Config{
		Hosts:    opt.Hosts,
		Procs:    protoProcs,
		Machine:  mm,
		Links:    sc.links,
		Protocol: proto,
	})
	if err != nil {
		return row, err
	}
	words := pcPages * pageWords
	buf, err := omp.Alloc[float64](rt, "pc.buf", words)
	if err != nil {
		return row, err
	}

	// Sequential reference: the same update stream applied to a plain
	// slice, summed the way the consumers sum.
	ref := make([]float64, words)
	wantSums := make([]float64, pcRounds)
	for round := 0; round < pcRounds; round++ {
		for w := 0; w < words; w += pcStride {
			ref[w] = float64(round*words + w + 1)
		}
		for _, v := range ref {
			wantSums[round] += v
		}
	}

	sums := make([]float64, protoProcs) // per-consumer running checksum
	t0 := rt.Now()
	net0 := rt.Cluster().Fabric().Snapshot()
	st0 := rt.Cluster().Stats().Snapshot()
	for round := 0; round < pcRounds; round++ {
		rt.Parallel("pc.produce", func(p *omp.Proc) {
			if p.ID != 0 {
				return
			}
			one := make([]float64, 1)
			for w := 0; w < words; w += pcStride {
				one[0] = float64(round*words + w + 1)
				buf.WriteRange(p.Mem(), w, one)
			}
			p.ChargeUnits(words/pcStride, simtime.Micros(1))
		})
		rt.Parallel("pc.consume", func(p *omp.Proc) {
			if p.ID == 0 {
				return
			}
			chunk := make([]float64, pageWords)
			sum := 0.0
			for pg := 0; pg < pcPages; pg++ {
				buf.ReadRange(p.Mem(), pg*pageWords, (pg+1)*pageWords, chunk)
				for _, v := range chunk {
					sum += v
				}
			}
			p.ChargeUnits(words, simtime.Micros(1)/8)
			if sum != wantSums[round] {
				panic(fmt.Sprintf("bench: prodcons %s/%s consumer %d round %d sum = %g, want %g",
					sc.name, proto, p.ID, round, sum, wantSums[round]))
			}
			sums[p.ID] += sum
		})
	}
	row.Time = rt.Now() - t0
	window := rt.Cluster().Fabric().Snapshot().Sub(net0)
	row.Bytes = window.TotalBytes()
	row.Messages = window.TotalMessages()
	fillProtoStats(&row, rt.Cluster().Stats().Snapshot().Sub(st0))

	var wantTotal float64
	for _, s := range wantSums {
		wantTotal += s
	}
	for id := 1; id < protoProcs; id++ {
		if sums[id] != wantTotal {
			return row, fmt.Errorf("bench: prodcons %s/%s consumer %d total = %g, want %g",
				sc.name, proto, id, sums[id], wantTotal)
		}
	}
	row.Verified = true
	return row, nil
}

// False-sharing kernel parameters: the stripe region spans fsPages
// pages whose words interleave across processes (word w belongs to
// process w mod protoProcs); each round process 0 plus one rotating
// peer rewrite their stripes — concurrent writers on every page, with
// process 0 dominant.
const (
	fsPages  = 2
	fsRounds = 9
)

// falseShareRun measures the false-sharing kernel for one cell.
func falseShareRun(opt Options, sc protoScenario, proto dsm.ProtocolKind) (ProtoRow, error) {
	row := ProtoRow{Kernel: "falseshare", Scenario: sc.name, Schedule: "-", Protocol: proto.String()}

	var mm *machine.Model
	if sc.model != nil {
		mm = sc.model(opt.Hosts)
	}
	rt, err := omp.New(omp.Config{
		Hosts:    opt.Hosts,
		Procs:    protoProcs,
		Machine:  mm,
		Links:    sc.links,
		Protocol: proto,
	})
	if err != nil {
		return row, err
	}
	words := fsPages * pageWords
	stripes, err := omp.Alloc[float64](rt, "fs.stripes", words)
	if err != nil {
		return row, err
	}

	// Sequential reference for the final state.
	ref := make([]float64, words)
	for round := 0; round < fsRounds; round++ {
		for _, id := range []int{0, 1 + round%(protoProcs-1)} {
			for w := id; w < words; w += protoProcs {
				ref[w] = float64(round*words + w + 1)
			}
		}
	}

	t0 := rt.Now()
	net0 := rt.Cluster().Fabric().Snapshot()
	st0 := rt.Cluster().Stats().Snapshot()
	for round := 0; round < fsRounds; round++ {
		peer := 1 + round%(protoProcs-1)
		rt.Parallel("fs.work", func(p *omp.Proc) {
			if p.ID != 0 && p.ID != peer {
				return
			}
			one := make([]float64, 1)
			for w := p.ID; w < words; w += protoProcs {
				one[0] = float64(round*words + w + 1)
				stripes.WriteRange(p.Mem(), w, one)
			}
			p.ChargeUnits(words/protoProcs, simtime.Micros(1))
		})
	}
	row.Time = rt.Now() - t0
	window := rt.Cluster().Fabric().Snapshot().Sub(net0)
	row.Bytes = window.TotalBytes()
	row.Messages = window.TotalMessages()
	fillProtoStats(&row, rt.Cluster().Stats().Snapshot().Sub(st0))

	mp := rt.MasterProc()
	got := make([]float64, words)
	stripes.ReadRange(mp.Mem(), 0, words, got)
	for w, v := range got {
		if v != ref[w] {
			return row, fmt.Errorf("bench: falseshare %s/%s word %d = %g, want %g",
				sc.name, proto, w, v, ref[w])
		}
	}
	row.Verified = true
	return row, nil
}

// FormatProtocols renders the matrix.
func FormatProtocols(rows []ProtoRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Coherence-protocol matrix: Tmk homeless LRC vs HLRC home-based LRC vs adaptive hybrid")
	fmt.Fprintln(&b, "(virtual work-phase time; diffs = diff fetches, flushes = home pushes)")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "kernel\tscenario\tschedule\tprotocol\ttime\tKB\tmsgs\tdiffs\tflushes\tverified")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3fs\t%.1f\t%d\t%d\t%d\t%v\n",
			r.Kernel, r.Scenario, r.Schedule, r.Protocol, float64(r.Time),
			float64(r.Bytes)/1e3, r.Messages, r.Diffs, r.Flushes, r.Verified)
	}
	w.Flush()
	return b.String()
}
