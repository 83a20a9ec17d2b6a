package bench

import (
	"fmt"
	"strings"

	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/page"
	"nowomp/internal/shmem"
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
	Coherence dsm.HybridStats
	// Verified records that the kernel's result was checked.
	Verified bool
}

// protoProcs is the team size of the matrix: the hetero matrix's, whose
// shapes and loop cell it shares.
const protoProcs = heteroProcs

// protoKinds is the matrix's protocol axis, protoShapes its NOW-shape
// axis (see nowShapes; leave-join is sized from the loop kernel's
// homogeneous baseline time so its events mature at any scale).
var (
	protoKinds  = []string{"tmk", "hlrc", "hybrid"}
	protoShapes = []string{"homog", "slow-link", "loaded-home", "mixed-speed", "leave-join"}
)

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

	// The loop rows run the hetero experiment's kernel, so the two
	// matrices are comparable.
	loop := func(sh nowShape, sched omp.Schedule, proto string) (ProtoRow, error) {
		m, _, err := loopCell(opt, sh, sched, proto)
		return protoRow("loop", sh, sched.String(), proto, m), err
	}
	// Baseline first, as a cell of its own: it sizes the leave-join
	// schedule. Every other cell of the matrix is an independent run and
	// fans out across Options.Parallel workers (this is the hottest
	// table to regenerate).
	rows, err := runMatrix(opt, "protocols baseline", []nowShape{{name: "homog"}},
		func(sh nowShape) (ProtoRow, error) { return loop(sh, omp.Static, "tmk") })
	if err != nil {
		return nil, err
	}
	base := rows[0]

	var cells []func() (ProtoRow, error)
	shapes := nowShapes(base.Time, protoShapes...)
	for _, sh := range shapes {
		for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
			if sh.schedule != "" && sched != omp.Static {
				continue // the adaptation shape sticks to the deterministic schedule
			}
			for _, proto := range protoKinds {
				if sh.name == "homog" && sched == omp.Static && proto == "tmk" {
					continue // already measured as the baseline
				}
				cells = append(cells, func() (ProtoRow, error) { return loop(sh, sched, proto) })
			}
		}
	}
	// The sharing-pattern kernels, every protocol under each shape (the
	// lock and stripe regions have no adaptation points).
	for _, kernel := range []func(Options, nowShape, string) (ProtoRow, error){migratoryRun, prodConsRun, falseShareRun} {
		for _, sh := range shapes {
			if sh.schedule != "" {
				continue
			}
			for _, proto := range protoKinds {
				cells = append(cells, func() (ProtoRow, error) { return kernel(opt, sh, proto) })
			}
		}
	}
	matrix, err := runMatrix(opt, "protocols", cells, func(cell func() (ProtoRow, error)) (ProtoRow, error) { return cell() })
	if err != nil {
		return nil, err
	}
	rows = append(rows, matrix...)

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

// protoRow assembles a verified row from a cell's measurement window:
// time and traffic, the mechanical signature (diff fetches, home
// pushes) and the hybrid coherence record.
func protoRow(kernel string, sh nowShape, sched, proto string, m measured) ProtoRow {
	return ProtoRow{
		Kernel: kernel, Scenario: sh.name, Schedule: sched, Protocol: proto,
		Time: m.Time, Bytes: m.Bytes, Messages: m.Messages,
		Diffs: m.Stats.DiffFetches, Flushes: m.Stats.HomeFlushes,
		Coherence: m.Stats.HybridStats,
		Verified:  true,
	}
}

// Migratory kernel parameters: each critical section rewrites migWords
// words (most of the one-page record), and every process takes the
// lock migRounds times.
const (
	migWords  = 448
	migRounds = 8
	migLock   = 41
)

// sharingCell runs one sharing-pattern cell — work over a fresh n-word
// region, no init pass, the final words checked against want — and
// names its row.
func sharingCell(opt Options, kernel string, sh nowShape, proto string, n int,
	work func(rt *omp.Runtime, region *shmem.Array[float64]), want func(i int) float64) (ProtoRow, error) {
	label := fmt.Sprintf("%s %s/%s", kernel, sh.name, proto)
	m, _, err := arrayCell(label, sh.spec(opt, proto), nil, n, false, work, want)
	return protoRow(kernel, sh, "-", proto, m), err
}

// migratoryRun measures the migratory-lock kernel for one cell.
func migratoryRun(opt Options, sh nowShape, proto string) (ProtoRow, error) {
	return sharingCell(opt, "migratory", sh, proto, pageWords, func(rt *omp.Runtime, rec *shmem.Array[float64]) {
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
	}, func(i int) float64 {
		if i >= migWords {
			return 0
		}
		return protoProcs * migRounds // every process incremented every record word migRounds times
	})
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
func prodConsRun(opt Options, sh nowShape, proto string) (ProtoRow, error) {
	words := pcPages * pageWords
	// Sequential reference: the same update stream applied to a plain
	// slice, summed the way the consumers sum.
	ref := make([]float64, words)
	wantSums := make([]float64, pcRounds)
	var wantTotal float64
	for round := 0; round < pcRounds; round++ {
		for w := 0; w < words; w += pcStride {
			ref[w] = float64(round*words + w + 1)
		}
		for _, v := range ref {
			wantSums[round] += v
		}
		wantTotal += wantSums[round]
	}

	sums := make([]float64, protoProcs) // per-consumer running checksum
	row, err := sharingCell(opt, "prodcons", sh, proto, words, func(rt *omp.Runtime, buf *shmem.Array[float64]) {
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
						sh.name, proto, p.ID, round, sum, wantSums[round]))
				}
				sums[p.ID] += sum
			})
		}
	}, func(i int) float64 { return ref[i] })
	for id := 1; err == nil && id < protoProcs; id++ {
		if sums[id] != wantTotal {
			err = fmt.Errorf("bench: prodcons %s/%s consumer %d total = %g, want %g",
				sh.name, proto, id, sums[id], wantTotal)
		}
	}
	return row, err
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
func falseShareRun(opt Options, sh nowShape, proto string) (ProtoRow, error) {
	words := fsPages * pageWords
	// Sequential reference for the final state.
	ref := make([]float64, words)
	for round := 0; round < fsRounds; round++ {
		for _, id := range []int{0, 1 + round%(protoProcs-1)} {
			for w := id; w < words; w += protoProcs {
				ref[w] = float64(round*words + w + 1)
			}
		}
	}
	return sharingCell(opt, "falseshare", sh, proto, words, func(rt *omp.Runtime, stripes *shmem.Array[float64]) {
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
	}, func(i int) float64 { return ref[i] })
}

// FormatProtocols renders the matrix.
func FormatProtocols(rows []ProtoRow) string {
	var s sheet
	writeProtocols(&s, Options{}, rows)
	return s.String()
}

// writeProtocols renders the matrix and records every cell; hybrid
// cells carry their coherence record.
func writeProtocols(s *sheet, _ Options, rows []ProtoRow) {
	s.WriteString("Coherence-protocol matrix: Tmk homeless LRC vs HLRC home-based LRC vs adaptive hybrid\n")
	s.WriteString("(virtual work-phase time; diffs = diff fetches, flushes = home pushes)\n")
	tabulate(s, "kernel\tscenario\tschedule\tprotocol\ttime\tKB\tmsgs\tdiffs\tflushes\tverified",
		"%s\t%s\t%s\t%s\t%.3fs\t%.1f\t%d\t%d\t%d\t%v", rows, func(r ProtoRow) []any {
			return []any{r.Kernel, r.Scenario, r.Schedule, r.Protocol, float64(r.Time),
				float64(r.Bytes) / 1e3, r.Messages, r.Diffs, r.Flushes, r.Verified}
		}, func(r ProtoRow) Record {
			rec := Record{Scenario: fmt.Sprintf("protocols/%s/%s/%s/%s", r.Kernel, r.Scenario, r.Schedule, r.Protocol),
				Seconds: float64(r.Time), Bytes: r.Bytes, Messages: r.Messages}
			if r.Protocol == "hybrid" {
				co := r.Coherence
				rec.Coherence = &co
			}
			return rec
		})
}
