// Command nowomp-ckpt demonstrates the section 4.3 fault tolerance: an
// iterative computation checkpoints the master at adaptation points;
// a simulated crash kills the run; restarting with -restore resumes
// from the last checkpoint and finishes with the correct result.
//
// Example:
//
//	nowomp-ckpt -file /tmp/demo.ckpt -crash-at 12   # dies mid-run
//	nowomp-ckpt -file /tmp/demo.ckpt -restore       # finishes the job
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nowomp/internal/ckpt"
	"nowomp/internal/omp"
	"nowomp/internal/scenario"
)

const (
	iters  = 20
	every  = 4 // checkpoint every 4 outer iterations
	length = 64 * 1024
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse args, run the demo with its progress
// on stdout (errors onto stderr) and return the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nowomp-ckpt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The team/protocol surface is the shared scenario spec; the demo
	// fixes its own workload, so only -procs and -protocol are bound.
	spec := scenario.Spec{
		Kernel: "jacobi", Procs: 4, Scale: 0.2,
		Grace: 3.0, Protocol: "tmk", Adaptive: true,
	}
	var (
		file    = fs.String("file", "nowomp.ckpt", "checkpoint file")
		restore = fs.Bool("restore", false, "resume from the checkpoint file")
		crashAt = fs.Int("crash-at", 0, "simulate a crash before this iteration (0 = run to completion)")
	)
	fs.IntVar(&spec.Procs, "procs", spec.Procs, "team size")
	spec.BindProtocol(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := demo(*file, *restore, *crashAt, spec, stdout); err != nil {
		fmt.Fprintln(stderr, "nowomp-ckpt:", err)
		return 1
	}
	return 0
}

var errCrash = errors.New("simulated crash (machine reboot)")

func demo(file string, restore bool, crashAt int, spec scenario.Spec, stdout io.Writer) error {
	if spec.Procs < 1 {
		return fmt.Errorf("-procs %d: the team needs at least one process", spec.Procs)
	}
	// One spare host beyond the team, as the fault-tolerance demo always
	// ran; the save/restore cycle needs the same config on both sides.
	spec.Hosts = spec.Procs + 1

	var (
		rt    *omp.Runtime
		start int
	)
	if restore {
		// The one caller that needs the config rather than a started
		// runtime: the checkpoint rebuilds the runtime from it.
		cfg, err := spec.Config()
		if err != nil {
			return err
		}
		var restored *ckpt.Restored
		rt, restored, err = ckpt.RestoreFile(cfg, file)
		if err != nil {
			return err
		}
		if err := restored.State("iter", &start); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "restored from %s: resuming at iteration %d, team %v, t=%.2fs\n",
			file, start, rt.Team(), float64(rt.Now()))
	} else {
		var err error
		if _, rt, _, err = spec.Start(nil); err != nil {
			return err
		}
	}

	// The program replays its allocations identically on restart; in
	// restore mode they rebind to the checkpointed contents.
	acc, err := omp.Alloc[float64](rt, "acc", length)
	if err != nil {
		return err
	}

	for it := start; it < iters; it++ {
		if crashAt > 0 && it == crashAt {
			return fmt.Errorf("%w at iteration %d; rerun with -restore", errCrash, it)
		}
		it := it
		rt.For("step", 0, length, func(p *omp.Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			acc.ReadRange(p.Mem(), lo, hi, buf)
			for i := range buf {
				buf[i] += float64(it + 1)
			}
			acc.WriteRange(p.Mem(), lo, buf)
			p.ChargeUnits(hi-lo, 50e-9)
		})
		done := it + 1
		if done%every == 0 && done < iters {
			// Between parallel constructs: an adaptation point, the
			// only place section 4.3 checkpoints.
			if _, err := ckpt.SaveFile(rt, file, map[string]any{"iter": done}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "iteration %2d done, checkpointed to %s (t=%.2fs)\n", done, file, float64(rt.Now()))
		} else {
			fmt.Fprintf(stdout, "iteration %2d done (t=%.2fs)\n", done, float64(rt.Now()))
		}
	}

	// Verify: every element accumulated 1+2+...+iters.
	want := float64(iters * (iters + 1) / 2)
	got := acc.Get(rt.MasterProc().Mem(), length/2)
	if got != want {
		return fmt.Errorf("result %g, want %g", got, want)
	}
	fmt.Fprintf(stdout, "completed %d iterations; result verified (%g per element)\n", iters, got)
	return nil
}
