package nowomp_test

import (
	"fmt"
	"log"

	"nowomp"
)

// ExampleNew shows the minimal fork-join program: a team fills a
// shared vector and reduces it.
func ExampleNew() {
	rt, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 4})
	if err != nil {
		log.Fatal(err)
	}
	v, err := nowomp.Alloc[float64](rt, "v", 1000)
	if err != nil {
		log.Fatal(err)
	}
	rt.For("fill", 0, v.Len(), func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = 1
		}
		v.WriteRange(p.Mem(), lo, buf)
	})
	sum := rt.For("sum", 0, v.Len(),
		func(p *nowomp.Proc, lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += v.Get(p.Mem(), i)
			}
			p.Contribute(s)
		}, nowomp.WithReduce(0, func(a, b float64) float64 { return a + b }))
	fmt.Println(int(sum))
	// Output: 1000
}

// ExampleRuntime_Submit shows transparent adaptation: a workstation
// leaves the running computation and the next construct runs on the
// smaller team with the iteration space re-partitioned automatically.
func ExampleRuntime_Submit() {
	rt, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nowomp.Alloc[float64](rt, "v", 256); err != nil {
		log.Fatal(err)
	}
	fmt.Println("team before:", rt.NProcs())

	// Workstation 2's owner wants it back.
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Leave, Host: 2, At: rt.Now()}); err != nil {
		log.Fatal(err)
	}
	rt.Parallel("next-construct", func(p *nowomp.Proc) {})
	fmt.Println("team after:", rt.NProcs())
	// Output:
	// team before: 4
	// team after: 3
}

// ExampleRuntime_ParallelForTiled shows the section 7 extension:
// tiling one long loop into several constructs multiplies the
// adaptation points, so a leave takes effect mid-loop.
func ExampleRuntime_ParallelForTiled() {
	rt, err := nowomp.New(nowomp.Config{Hosts: 4, Procs: 4, Adaptive: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nowomp.Alloc[float64](rt, "v", 256); err != nil {
		log.Fatal(err)
	}
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Leave, Host: 3, At: 0.001}); err != nil {
		log.Fatal(err)
	}
	var sizes []int
	rt.ParallelForTiled("loop", 0, 400, 4, func(p *nowomp.Proc, lo, hi int) {
		if p.ID == 0 {
			sizes = append(sizes, p.N)
		}
		p.ChargeUnits(hi-lo, 1e-4)
	})
	fmt.Println("team size per tile:", sizes)
	// Output: team size per tile: [4 3 3 3]
}
