package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"nowomp/internal/farm"
	"nowomp/internal/scenario"
)

// workload is one named set of inputs. The names are fixed: later
// issues cite them.
type workload struct {
	Name string
	// Why records what the workload stresses and what it must not.
	Why string
	// generate draws the workload's inputs from the seed. scaleMul is 1
	// for a measuring run and 0.25 for -quick.
	generate func(rng *rand.Rand, scaleMul float64) inputs
}

// baseScales are the problem scales of a measuring run, tuned on a
// 2-core 2.1 GHz Xeon so that one pass of a batch workload takes about
// five seconds and the farm window about ten.
var baseScales = map[string]float64{
	"table1-tmk.jacobi":     0.5,
	"table1-tmk.gauss":      0.5,
	"table1-tmk.nbf":        0.5,
	"table1-tmk.fft3d":      0.8,
	"sync-3proto.protocols": 1.4,
	"sync-3proto.tasks":     2.5,
	"adaptive-home.kernels": 0.35,
	"farm-mix.lo":           0.12,
	"farm-mix.hi":           0.22,
}

const (
	// farmSubmissions is the length of the farm-mix submission sequence.
	farmSubmissions = 1600
	// farmScaleSteps is the number of evenly spaced scales, lo to hi,
	// of the farm-mix scenario grid. Six steps give 252 distinct
	// scenarios: the 90th percentile of fresh latency then has 25
	// samples beyond it and sits on a dense part of the distribution.
	farmScaleSteps = 6
)

// inputs is everything a workload hands the program under test. The
// program sees only these: the seed stays in the harness.
//
// The seed never changes how much work a workload holds. It draws the
// order of the operations, the spare workstations of each pool, the
// adaptation schedule and machine speeds (adaptive-home) and which
// scenarios are popular and when they arrive (farm-mix). A seed that
// drew team sizes or problem scales would move every host-time metric
// by more than the bounds the metrics carry, and two runs could then
// only be compared on the same seed.
type inputs struct {
	// Protocols is the bench.Protocols call a sync-3proto pass opens
	// with (nil on the other workloads).
	Protocols *protocolsCall `json:"protocols,omitempty"`
	// Specs are the scenarios a batch pass runs, in order; on farm-mix
	// they are the distinct scenarios the submissions draw from.
	Specs []scenario.Spec `json:"specs"`
	// Order is the farm-mix submission sequence: submission i posts
	// Bodies[Order[i]], the JSON encoding of Specs[Order[i]]. Encoding
	// the bodies is input generation, not load.
	Order  []int    `json:"order,omitempty"`
	Bodies [][]byte `json:"-"`
	// Adaptations, when not 0, is the number of adapt events every
	// scenario must apply for its run to count.
	Adaptations int `json:"-"`
}

// protocolsCall holds the two bench.Options fields the harness sets.
type protocolsCall struct {
	Scale float64 `json:"scale"`
	Hosts int     `json:"hosts"`
}

// canonical renders the inputs as bytes: equal bytes mean equal
// inputs.
func (in inputs) canonical() []byte {
	data, err := json.Marshal(in)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return data
}

// spare draws the idle workstations of a pool: they change the spec's
// hash and the fabric's size, never the work.
func spare(rng *rand.Rand) int { return 2 + rng.Intn(3) }

func shuffleSpecs(rng *rand.Rand, specs []scenario.Spec) {
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
}

var workloads = []workload{
	{
		Name: "table1-tmk",
		Why:  "the paper's four Table 1 kernels under tmk: barrier-only, so host time is twin copies, diff creation and float arithmetic; a page/shmem/apps gain must show here and an engine gain must not",
		generate: func(rng *rand.Rand, m float64) inputs {
			specs := []scenario.Spec{
				{Kernel: "jacobi", Scale: baseScales["table1-tmk.jacobi"] * m, Procs: 8},
				{Kernel: "gauss", Scale: baseScales["table1-tmk.gauss"] * m, Procs: 6},
				{Kernel: "nbf", Scale: baseScales["table1-tmk.nbf"] * m, Procs: 4},
				{Kernel: "fft3d", Scale: baseScales["table1-tmk.fft3d"] * m, Procs: 8},
			}
			for i := range specs {
				specs[i].Protocol = "tmk"
				specs[i].Hosts = specs[i].Procs + spare(rng)
			}
			shuffleSpecs(rng, specs)
			return inputs{Specs: specs}
		},
	},
	{
		Name: "sync-3proto",
		Why:  "bench.Protocols, then mergesort and quadrature under all three protocols: lock acquires, steals and flushes with little arithmetic; where engine, dsm lock/metadata and task changes show",
		generate: func(rng *rand.Rand, m float64) inputs {
			call := protocolsCall{Scale: baseScales["sync-3proto.protocols"] * m, Hosts: 4 + spare(rng)}
			var specs []scenario.Spec
			for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
				for _, kernel := range []string{"mergesort", "quadrature"} {
					specs = append(specs, scenario.Spec{
						Kernel: kernel, Scale: baseScales["sync-3proto.tasks"] * m,
						Procs: 4, Hosts: 4 + spare(rng), Protocol: proto,
					})
				}
			}
			shuffleSpecs(rng, specs)
			return inputs{Protocols: &call, Specs: specs}
		},
	},
	{
		Name: "adaptive-home",
		Why:  "jacobi and gauss under hlrc and hybrid with a leave/join pair and two machine speeds: home pushes, page faults, home migration, twin elision, the adapt path; guards the home-based protocols",
		generate: func(rng *rand.Rand, m float64) inputs {
			const procs = 6
			var specs []scenario.Spec
			for _, proto := range []string{"hlrc", "hybrid"} {
				for _, kernel := range []string{"jacobi", "gauss"} {
					// One team member (never the master) leaves early in the
					// run and rejoins after its grace period. The latest join
					// is raised at 12 virtual seconds and the shortest run
					// (gauss under hybrid) lasts 15, so both events mature;
					// simulated time grows with the cube of the scale, and
					// the instants shrink with it under -quick.
					t := m * m * m
					leaver := 1 + rng.Intn(procs-1)
					leaveAt := (2 + 0.25*float64(rng.Intn(9))) * t
					joinAt := leaveAt + (4+0.5*float64(rng.Intn(9)))*t
					slow, fast := 1+rng.Intn(procs-1), 1+rng.Intn(procs-1)
					for fast == slow {
						fast = 1 + rng.Intn(procs-1)
					}
					speeds := []string{
						fmt.Sprintf("%d=%g", slow, []float64{0.8, 0.9}[rng.Intn(2)]),
						fmt.Sprintf("%d=%g", fast, []float64{1.1, 1.25}[rng.Intn(2)]),
					}
					sort.Strings(speeds)
					specs = append(specs, scenario.Spec{
						Kernel: kernel, Scale: baseScales["adaptive-home.kernels"] * m,
						Procs: procs, Hosts: procs + spare(rng), Protocol: proto,
						Adaptive: true, Grace: 3 * t,
						Schedule: fmt.Sprintf("%g:leave:%d,%g:join:%d", leaveAt, leaver, joinAt, leaver),
						Machines: strings.Join(speeds, ","),
					})
				}
			}
			shuffleSpecs(rng, specs)
			in := inputs{Specs: specs}
			if m == 1 {
				// The point of the workload is the adapt path: a run
				// whose leave or join never applied did not take it.
				// (A -quick run is too short for both to mature.)
				in.Adaptations = 2
			}
			return in
		},
	},
	{
		Name: "farm-mix",
		Why:  "in-process farm server on a loopback listener, closed-loop clients, skewed mix of short scenarios: build, omp.New, engine spawn and JSON encoding are the cost; the only workload crossing farm",
		generate: func(rng *rand.Rand, m float64) inputs {
			specs := farmSpecs(m)
			n := farmSubmissions
			if m < 1 {
				n = farmSubmissions / 4
			}
			// Popularity: a seeded ranking with weight 1/rank. Every
			// scenario arrives at least once (its first arrival is
			// fresh); the rest of the sequence repeats the popular ones
			// and hits the store.
			rank := rng.Perm(len(specs))
			cum := make([]float64, len(specs))
			total := 0.0
			for r := range rank {
				total += 1 / float64(r+1)
				cum[r] = total
			}
			order := make([]int, 0, n)
			for i := range specs {
				order = append(order, i)
			}
			for len(order) < n {
				r := sort.SearchFloat64s(cum, rng.Float64()*total)
				order = append(order, rank[min(r, len(rank)-1)])
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			bodies := make([][]byte, len(specs))
			for i, spec := range specs {
				var err error
				if bodies[i], err = json.Marshal(spec); err != nil {
					panic(err) // a struct of strings and numbers always encodes
				}
			}
			return inputs{Specs: specs, Order: order, Bodies: bodies}
		},
	},
}

// farmSpecs is the distinct-scenario set of farm-mix: the farm
// driver's catalogue across a grid of scales and team sizes, with
// duplicates (by content address) dropped. The set is the same for
// every seed.
func farmSpecs(m float64) []scenario.Spec {
	lo, hi := baseScales["farm-mix.lo"], baseScales["farm-mix.hi"]
	var specs []scenario.Spec
	seen := map[string]bool{}
	for step := 0; step < farmScaleSteps; step++ {
		scale := math.Round((lo+(hi-lo)*float64(step)/(farmScaleSteps-1))*m*1000) / 1000
		// Power-of-two teams only: nbf's int32 partner lists split an
		// 8-byte word between two processes, and trip the word-race
		// check, at 6 processes on several of these scales.
		for _, procs := range []int{2, 4, 8} {
			for _, spec := range farm.Catalogue(scale) {
				// The catalogue's link, load and schedule entries name
				// hosts up to 3, so the pool never shrinks below the
				// catalogue's own six.
				spec.Procs, spec.Hosts = procs, max(procs+2, 6)
				hash, err := spec.Hash()
				if err != nil {
					panic(fmt.Sprintf("farm-mix: catalogue spec does not normalize: %v", err))
				}
				if !seen[hash] {
					seen[hash] = true
					specs = append(specs, spec)
				}
			}
		}
	}
	return specs
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// generateInputs draws a workload's inputs from the seed.
func generateInputs(w workload, seed int64, quick bool) inputs {
	m := 1.0
	if quick {
		m = 0.25
	}
	return w.generate(rand.New(rand.NewSource(seed)), m)
}
