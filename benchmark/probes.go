package main

import (
	"encoding/json"
	"fmt"
	"time"

	"nowomp/internal/dsm"
	"nowomp/internal/engine"
	"nowomp/internal/farm"
	"nowomp/internal/omp"
	"nowomp/internal/page"
	"nowomp/internal/scenario"
	"nowomp/internal/shmem"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
	"nowomp/internal/vc"
)

// The probe suite times each layer's public entry points alone, with
// no other layer running, so that a layer's own cost can be told from
// the cost of the kernels that drive it. Every probe is three rounds
// and reports the median, in nanoseconds (or microseconds) per
// operation.

// probeRounds is the number of rounds behind every probe's median.
const probeRounds = 3

// probeEffort scales every probe's operation count and working set;
// the tests cut it down to a smoke run.
var probeEffort = 1.0

// effort scales an operation count by probeEffort.
func effort(n int) int { return max(int(float64(n)*probeEffort), 2) }

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink float64

// rounds runs the measurement probeRounds times and returns the median
// of what it reports, the time of one operation.
func rounds(measure func() time.Duration, opsPerRound int) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		per[r] = float64(measure().Nanoseconds()) / float64(opsPerRound)
	}
	return median(per)
}

// timed is rounds for a measurement that is one uninterrupted loop.
func timed(ops int, loop func()) float64 {
	return rounds(func() time.Duration {
		start := time.Now()
		loop()
		return time.Since(start)
	}, ops)
}

// probeWorkingSet sizes the buffer the page-sized probes cycle
// through: four times the last-level cache, so that every page comes
// from memory as it does in a full-scale run, held between 32 and 128
// MiB (a virtual machine reports the whole socket's cache, of which it
// holds a share).
func probeWorkingSet() (workingSet, llc int) {
	llc = lastLevelCacheBytes()
	return effort(min(max(4*llc, 32<<20), 128<<20)), llc
}

// runProbes returns every probe metric by name, plus the two sizes the
// page-sized probes ran under.
func runProbes() map[string]float64 {
	out := map[string]float64{}
	ws, llc := probeWorkingSet()
	out["probe.working_set_mb"] = float64(ws) / (1 << 20)
	out["probe.llc_mb"] = float64(llc) / (1 << 20)
	probeScenario(out)
	probeEngine(out)
	probeOMP(out)
	probePage(out, ws)
	probeShmem(out, ws)
	probeSmall(out)
	for _, kind := range []dsm.ProtocolKind{dsm.Tmk, dsm.HLRC, dsm.Hybrid} {
		probeDSM(out, kind)
	}
	probeFarm(out)
	return out
}

func probeScenario(out map[string]float64) {
	body, err := json.Marshal(scenario.Spec{
		Kernel: "jacobi", Scale: 0.1, Procs: 4, Hosts: 6, Protocol: "hybrid",
		Adaptive: true, Schedule: "0.05:leave:3,0.12:join:3", Machines: "1=0.5,3=2",
	})
	if err != nil {
		panic(err)
	}
	n := effort(20000)
	out["scenario.decode_ns"] = timed(n, func() {
		for i := 0; i < n; i++ {
			if _, err := scenario.Decode(body); err != nil {
				panic(err)
			}
		}
	})
}

func probeEngine(out map[string]float64) {
	// spawn: register eight procs with empty bodies and run them to
	// completion, as a fork does.
	engines, procs := effort(500), 8
	out["engine.spawn_ns"] = timed(engines*procs, func() {
		for i := 0; i < engines; i++ {
			e := engine.New()
			for id := 0; id < procs; id++ {
				e.Go("probe", id, simtime.NewClock(0), func(*engine.Proc) {})
			}
			e.Run()
		}
	})

	// fastpath: a lone proc whose wake condition already holds keeps
	// the token.
	parks := effort(500000)
	out["engine.fastpath_ns"] = timed(parks, func() {
		var wl engine.WaitList
		e := engine.New()
		e.Go("probe", 0, simtime.NewClock(0), func(p *engine.Proc) {
			for i := 0; i < parks; i++ {
				p.ParkOn(&wl, "probe", nil)
			}
		})
		e.Run()
	})

	// switch: two procs hand a turn back and forth through one wait
	// list, the shape of a contended lock. Every iteration of either
	// proc is one park that gives up the token and one goroutine
	// handoff through the scheduler. The same loop calibrates the
	// engine's switch count: how many switches stand behind one event
	// the runtime records in its scheduling-latency histogram.
	turns := effort(50000)
	before := readHostUsage().schedEvents
	out["engine.switch_ns"] = timed(2*turns, func() {
		var wl engine.WaitList
		turn := 0
		e := engine.New()
		for me := 0; me < 2; me++ {
			e.Go("probe", me, simtime.NewClock(0), func(p *engine.Proc) {
				for i := 0; i < turns; i++ {
					p.ParkOn(&wl, "probe", func() (simtime.Seconds, bool) { return 0, turn == me })
					turn = 1 - me
					wl.Notify()
				}
			})
		}
		e.Run()
	})
	if events := readHostUsage().schedEvents - before; events > 0 {
		out["probe.switches_per_sched_event"] = float64(probeRounds*2*turns) / float64(events)
	}
}

func probeOMP(out map[string]float64) {
	cfg := omp.Config{Hosts: 6, Procs: 4}
	news := effort(300)
	out["omp.new_us"] = timed(news, func() {
		for i := 0; i < news; i++ {
			if _, err := omp.New(cfg); err != nil {
				panic(err)
			}
		}
	}) / 1e3

	rt, err := omp.New(cfg)
	if err != nil {
		panic(err)
	}
	forks := effort(3000)
	out["omp.forkjoin_ns"] = timed(forks, func() {
		for i := 0; i < forks; i++ {
			rt.For("probe", 0, 4, func(*omp.Proc, int, int) {})
		}
	})

	regions, tasks := effort(4), 1024
	out["task.spawn_wait_ns"] = timed(regions*tasks, func() {
		for i := 0; i < regions; i++ {
			rt.Tasks("probe", func(p *omp.TaskProc) {
				for t := 0; t < tasks; t++ {
					p.Spawn(func(*omp.TaskProc) {})
				}
				p.TaskWait()
			})
		}
	})
}

// probePage times the twin/diff codec over page pairs cycling through
// the working set: half of it holds the twins, half the current pages.
func probePage(out map[string]float64, ws int) {
	n := ws / 2 / page.Size
	twins := make([]byte, n*page.Size)
	cur := make([]byte, n*page.Size)
	for i := range twins {
		twins[i] = byte(i * 7)
	}
	copy(cur, twins)
	pg := func(buf []byte, i int) []byte { return buf[i*page.Size : (i+1)*page.Size : (i+1)*page.Size] }

	var fl page.Freelist
	out["page.twin_ns"] = timed(n, func() {
		for i := 0; i < n; i++ {
			fl.Release(fl.Copy(pg(cur, i)))
		}
	})

	// sparse: 8 of 512 words changed, one every 64th; dense: all of
	// them.
	dirty := func(step int) {
		for i := 0; i < n; i++ {
			p := pg(cur, i)
			for w := 0; w < page.Words; w += step {
				p[w*page.WordBytes] ^= 0xff
			}
		}
	}
	var diffs [2]*page.Diff
	for k, shape := range []string{"sparse", "dense"} {
		step := []int{64, 1}[k]
		dirty(step)
		out["page.make_"+shape+"_ns"] = timed(n, func() {
			for i := 0; i < n; i++ {
				diffs[k] = page.Make(pg(twins, i), pg(cur, i))
			}
		})
		dirty(step) // cur equals twins again
	}
	for k, shape := range []string{"sparse", "dense"} {
		d := diffs[k]
		out["page.apply_"+shape+"_ns"] = timed(n, func() {
			for i := 0; i < n; i++ {
				d.Apply(pg(cur, i))
			}
		})
	}
	// Two sparse diffs with no word in common: the full scan, as
	// between two writers of a falsely shared page.
	other := append([]byte(nil), pg(twins, 0)...)
	for w := 32; w < page.Words; w += 64 {
		other[w*page.WordBytes] ^= 0xff
	}
	a, b := diffs[0], page.Make(pg(twins, 0), other[:page.Size])
	overlaps := effort(200000)
	out["page.overlap_ns"] = timed(overlaps, func() {
		hits := 0
		for i := 0; i < overlaps; i++ {
			if a.Overlaps(b) {
				hits++
			}
		}
		probeSink += float64(hits)
	})
}

// probeShmem times the typed accessors over valid pages of a one-host
// cluster: no fault is taken inside a timed loop.
func probeShmem(out map[string]float64, ws int) {
	c, err := dsm.New(dsm.Config{MaxHosts: 1})
	if err != nil {
		panic(err)
	}
	n := ws / 4 / 8 // float64 elements: a quarter of the working set
	arr, err := shmem.Alloc[float64](c, "probe", n)
	if err != nil {
		panic(err)
	}
	m := shmem.Context{Host: c.Master(), Clock: simtime.NewClock(0)}
	perPage := page.Size / 8
	// Dirty every page first, so that the timed stores find the page
	// writable as a kernel's second store to a page does.
	for i := 0; i < n; i += perPage {
		arr.Set(m, i, 1)
	}
	// 509 is coprime to the elements of a page, so successive accesses
	// land on different pages and different offsets.
	const stride = 509
	accesses := n / 8
	out["shmem.set_ns"] = timed(accesses, func() {
		for k, i := 0, 0; k < accesses; k, i = k+1, (i+stride)%n {
			arr.Set(m, i, float64(k))
		}
	})
	out["shmem.get_ns"] = timed(accesses, func() {
		sum := 0.0
		for k, i := 0, 0; k < accesses; k, i = k+1, (i+stride)%n {
			sum += arr.Get(m, i)
		}
		probeSink += sum
	})
	kb := float64(n*8) / 1024
	out["shmem.writespan_ns_per_kb"] = timed(1, func() {
		for lo := 0; lo < n; {
			s := arr.WriteSpan(m, lo, n)
			for j := range s {
				s[j] = 2
			}
			lo += len(s)
		}
	}) / kb
	out["shmem.readspan_ns_per_kb"] = timed(1, func() {
		sum := 0.0
		for lo := 0; lo < n; {
			s := arr.ReadSpan(m, lo, n)
			for _, v := range s {
				sum += v
			}
			lo += len(s)
		}
		probeSink += sum
	}) / kb
}

func probeSmall(out map[string]float64) {
	a, b := vc.New(8), vc.New(8)
	for i := range b {
		b[i] = int32(i)
	}
	merges := effort(2000000)
	out["vc.merge_ns"] = timed(merges, func() {
		for i := 0; i < merges; i++ {
			b[i&7]++
			a.Merge(b)
		}
	})
	f := simnet.New(8)
	records := effort(2000000)
	out["simnet.record_ns"] = timed(records, func() {
		for i := 0; i < records; i++ {
			f.Record(simnet.MachineID(i&7), simnet.MachineID((i+1)&7), 64)
		}
	})
}

// probeDSM times one protocol's fault, barrier and lock paths on a
// four-host cluster driven directly, outside any engine.
func probeDSM(out map[string]float64, kind dsm.ProtocolKind) {
	const hosts, pages = 4, 512
	c, err := dsm.New(dsm.Config{MaxHosts: hosts, Protocol: kind})
	if err != nil {
		panic(err)
	}
	active := []dsm.HostID{0}
	clocks := []*simtime.Clock{simtime.NewClock(0)}
	for h := 1; h < hosts; h++ {
		if _, err := c.Join(dsm.HostID(h)); err != nil {
			panic(err)
		}
		active = append(active, dsm.HostID(h))
		clocks = append(clocks, simtime.NewClock(0))
	}
	r, err := c.Alloc("probe", pages*page.Size)
	if err != nil {
		panic(err)
	}
	barrier := func() {
		arrivals := make([]simtime.Seconds, hosts)
		for h := range arrivals {
			arrivals[h] = clocks[h].Now()
		}
		c.Barrier(active, arrivals)
	}
	touch := func(h, p int, write bool) {
		if write {
			c.Host(dsm.HostID(h)).WriteSpan(r.ID, p*page.Size, 8, clocks[h])[0]++
		} else {
			probeSink += float64(c.Host(dsm.HostID(h)).ReadSpan(r.ID, p*page.Size, 8, clocks[h])[0])
		}
	}
	suffix := "." + kind.String()

	// Fault paths: host 1 writes a word of every page (a write fault
	// on a valid clean page: the twin), a barrier publishes the
	// interval, and host 2 reads every page (a read fault: diffs under
	// tmk, whole pages from the home under hlrc). One untimed lap
	// first makes every page valid where it is written.
	lap := func() (write, read time.Duration) {
		start := time.Now()
		for p := 0; p < pages; p++ {
			touch(1, p, true)
		}
		write = time.Since(start)
		barrier()
		start = time.Now()
		for p := 0; p < pages; p++ {
			touch(2, p, false)
		}
		read = time.Since(start)
		barrier()
		return write, read
	}
	lap()
	var writes, reads []float64
	for i := 0; i < probeRounds; i++ {
		w, rd := lap()
		writes = append(writes, float64(w.Nanoseconds())/pages)
		reads = append(reads, float64(rd.Nanoseconds())/pages)
	}
	out["dsm.write_fault_ns"+suffix] = median(writes)
	out["dsm.read_fault_ns"+suffix] = median(reads)

	// Barrier with 16 dirty pages per host, each host on its own pages.
	dirtyPerHost, barriers := 16, effort(20)
	out["dsm.barrier_us"+suffix] = rounds(func() time.Duration {
		var total time.Duration
		for b := 0; b < barriers; b++ {
			for h := 0; h < hosts; h++ {
				for p := 0; p < dirtyPerHost; p++ {
					touch(h, h*dirtyPerHost+p, true)
				}
			}
			start := time.Now()
			barrier()
			total += time.Since(start)
		}
		return total
	}, barriers) / 1e3

	// Lock pair: a record on one page updated under a lock by two
	// hosts in turn — acquire, honour the other's release, write,
	// release (flush).
	pairs := effort(2000)
	out["dsm.lock_pair_ns"+suffix] = timed(pairs, func() {
		for i := 0; i < pairs; i++ {
			h := 1 + i&1
			c.AcquireLock(7, c.Host(dsm.HostID(h)), clocks[h])
			touch(h, 0, true)
			c.ReleaseLock(7, c.Host(dsm.HostID(h)), clocks[h])
		}
	})
	barrier()
}

func probeFarm(out map[string]float64) {
	store := farm.NewStore()
	const hash = "probe"
	_, _, flight := store.Begin(hash)
	store.Complete(hash, flight, []byte("{}\n"), nil)
	begins := effort(1000000)
	out["farm.store_begin_hit_ns"] = timed(begins, func() {
		for i := 0; i < begins; i++ {
			if d, _, _ := store.Begin(hash); d != farm.Hit {
				panic("farm probe: stored hash did not hit")
			}
		}
	})

	srv := farm.NewServer(farm.Limits{Workers: 1})
	defer srv.Close()
	spec := scenario.Spec{Kernel: "quadrature", Scale: warmScale, Procs: 2, Hosts: 4}
	job, _, err := srv.Submit("probe", spec)
	if err != nil {
		panic(fmt.Sprintf("farm probe: %v", err))
	}
	<-job.Done
	submits := effort(5000)
	out["farm.submit_hit_us"] = timed(submits, func() {
		for i := 0; i < submits; i++ {
			if j, _, err := srv.Submit("probe", spec); err != nil || j.Cache != farm.Hit {
				panic("farm probe: resubmission did not hit")
			}
		}
	}) / 1e3
}
