// Checkpoint/restart: section 4.3's fault tolerance in one process.
// An iterative solver checkpoints at an adaptation point, the program
// abandons the runtime (the "power flicker"), and a fresh runtime
// restores from the file and finishes. The final result matches an
// uninterrupted run exactly.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"nowomp"
)

const (
	n     = 32 * 1024
	iters = 16
)

func step(rt *nowomp.Runtime, acc *nowomp.Array[float64], it int) {
	rt.For("step", 0, n, func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		acc.ReadRange(p.Mem(), lo, hi, buf)
		for i := range buf {
			buf[i] = buf[i]*0.5 + float64(it)
		}
		acc.WriteRange(p.Mem(), lo, buf)
	})
}

func checksum(rt *nowomp.Runtime, acc *nowomp.Array[float64]) float64 {
	return rt.For("sum", 0, n, func(p *nowomp.Proc, lo, hi int) {
		buf := make([]float64, hi-lo)
		acc.ReadRange(p.Mem(), lo, hi, buf)
		s := 0.0
		for _, v := range buf {
			s += v
		}
		p.Contribute(s)
	}, nowomp.WithReduce(0, func(a, b float64) float64 { return a + b }))
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg := nowomp.Config{Hosts: 4, Procs: 4, Adaptive: true}
	path := filepath.Join(os.TempDir(), "nowomp-example.ckpt")
	defer os.Remove(path)

	// Reference: an uninterrupted run.
	ref, err := nowomp.New(cfg)
	if err != nil {
		return err
	}
	refAcc, err := nowomp.Alloc[float64](ref, "acc", n)
	if err != nil {
		return err
	}
	for it := 0; it < iters; it++ {
		step(ref, refAcc, it)
	}
	want := checksum(ref, refAcc)

	// Interrupted run: checkpoint at iteration 10, then "crash".
	rt, err := nowomp.New(cfg)
	if err != nil {
		return err
	}
	acc, err := nowomp.Alloc[float64](rt, "acc", n)
	if err != nil {
		return err
	}
	const crashAfter = 10
	for it := 0; it < crashAfter; it++ {
		step(rt, acc, it)
	}
	if err := nowomp.Checkpoint(rt, path, map[string]any{"iter": crashAfter}); err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpointed at iteration %d (t=%.2fs); simulating a crash\n", crashAfter, float64(rt.Now()))
	rt, acc = nil, nil // the machine reboots; everything in memory is gone

	// Recovery: restore the master from disk, replay allocations,
	// resume the outer loop where the checkpoint left it.
	rt2, restored, err := nowomp.Restore(cfg, path)
	if err != nil {
		return err
	}
	var resume int
	if err := restored.State("iter", &resume); err != nil {
		return err
	}
	acc2, err := nowomp.Alloc[float64](rt2, "acc", n)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "restored: resuming at iteration %d with team %v\n", resume, rt2.Team())
	for it := resume; it < iters; it++ {
		step(rt2, acc2, it)
	}
	got := checksum(rt2, acc2)

	if got != want {
		return fmt.Errorf("restart result %g differs from uninterrupted %g", got, want)
	}
	fmt.Fprintf(w, "restarted run matches the uninterrupted run exactly (checksum %.6g)\n", got)
	return nil
}
