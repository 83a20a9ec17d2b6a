// Quickstart: the smallest complete nowomp program. A four-process
// team fills a shared vector, a fifth workstation joins the running
// computation, and the final reduction runs on the grown team — no
// application code changes, which is the paper's transparency claim.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"nowomp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rt, err := nowomp.New(nowomp.Config{Hosts: 5, Procs: 4, Adaptive: true})
	if err != nil {
		return err
	}

	const n = 1 << 16
	v, err := nowomp.Alloc[float64](rt, "v", n)
	if err != nil {
		return err
	}

	// #pragma omp parallel for — the body receives its block of the
	// iteration space, recomputed from (id, nprocs) at every fork.
	rt.For("fill", 0, n, func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		for i := range buf {
			buf[i] = float64(lo+i) * 0.5
		}
		v.WriteRange(p.Mem(), lo, buf)
	})
	fmt.Fprintf(w, "filled %d elements on %d processes\n", n, rt.NProcs())

	// Workstation 4 becomes available. The join takes effect at the
	// first adaptation point after its process has spawned (~0.75 s of
	// virtual time).
	if err := rt.Submit(nowomp.Event{Kind: nowomp.Join, Host: 4, At: rt.Now()}); err != nil {
		return err
	}
	rt.Parallel("work", func(p *nowomp.Proc) { p.Charge(1.0) })
	rt.Parallel("work", func(p *nowomp.Proc) { p.Charge(1.0) })

	// #pragma omp parallel for reduction(+:sum) — each process folds
	// its block into a partial via Contribute; the master combines the
	// partials deterministically at the join.
	sum := rt.For("sum", 0, n, func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		v.ReadRange(p.Mem(), lo, hi, buf)
		s := 0.0
		for _, x := range buf {
			s += x
		}
		p.Contribute(s)
	}, nowomp.WithReduce(0, func(a, b float64) float64 { return a + b }))

	fmt.Fprintf(w, "team grew to %d processes after the join\n", rt.NProcs())
	fmt.Fprintf(w, "sum = %.1f (want %.1f)\n", sum, 0.5*float64(n-1)*float64(n)/2)
	fmt.Fprintf(w, "virtual runtime %.2f s, adaptations: %d\n", float64(rt.Now()), len(rt.AdaptLog()))
	return nil
}
