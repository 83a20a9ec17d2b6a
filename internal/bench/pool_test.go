package bench

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// TestParallelMatchesSequential pins the worker-pool contract in-tree:
// an experiment run on a pool must produce row-for-row identical
// results to the inline run. Protocols is checked at the default pool
// size too, and by its formatted table. Run under -race, it also puts
// the concurrent fan-out under the race detector, which the CLI-driven
// CI gate does not.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Tasking(Options{Scale: 0.06, Parallel: 1})
	if err != nil {
		t.Fatalf("sequential Tasking: %v", err)
	}
	par, err := Tasking(Options{Scale: 0.06, Parallel: 4})
	if err != nil {
		t.Fatalf("parallel Tasking: %v", err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d sequential, %d parallel", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs across parallelism levels:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}

	inline, err := Protocols(Options{Scale: 0.06, Parallel: 1})
	if err != nil {
		t.Fatalf("inline Protocols: %v", err)
	}
	for _, parallel := range []int{0, 4} {
		rows, err := Protocols(Options{Scale: 0.06, Parallel: parallel})
		if err != nil {
			t.Fatalf("Protocols at pool size %d: %v", parallel, err)
		}
		if len(rows) != len(inline) {
			t.Fatalf("pool size %d: %d rows, inline %d", parallel, len(rows), len(inline))
		}
		for i := range inline {
			if rows[i] != inline[i] {
				t.Errorf("pool size %d: row %d differs:\ninline: %+v\npool:   %+v", parallel, i, inline[i], rows[i])
			}
		}
		if got, want := FormatProtocols(rows), FormatProtocols(inline); got != want {
			t.Errorf("pool size %d: formatted table differs:\n%s\ninline:\n%s", parallel, got, want)
		}
	}
}

// TestRunCellsReportsFirstErrorByIndex: the pool's error is the first
// failing cell's in index order, whatever order the workers finish in.
func TestRunCellsReportsFirstErrorByIndex(t *testing.T) {
	boom2 := errors.New("cell 2 failed")
	boom5 := errors.New("cell 5 failed")
	err := runCells(3, 8, func(i int) error {
		switch i {
		case 2:
			return boom2
		case 5:
			return boom5
		}
		return nil
	})
	if err != boom2 {
		t.Fatalf("runCells error = %v, want the index-2 error", err)
	}
}

// TestRunCellsPropagatesLowestPanic: a cell's panic reaches the
// caller's recover at every pool size — a panic left on a pool worker
// would kill the process — and when several cells panic, the lowest
// index wins, as it does inline.
func TestRunCellsPropagatesLowestPanic(t *testing.T) {
	for _, parallel := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("parallel ", parallel), func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				runCells(parallel, 8, func(i int) error {
					if i == 2 || i == 5 {
						panic(fmt.Sprintf("cell %d", i))
					}
					return nil
				})
			}()
			if got != "cell 2" {
				t.Fatalf("recovered %v, want cell 2's panic", got)
			}
		})
	}
}

// TestWithDefaultsPoolSize: the zero value (and any non-positive size)
// resolves to GOMAXPROCS, the one place the pool size is decided;
// explicit sizes are kept.
func TestWithDefaultsPoolSize(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, runtime.GOMAXPROCS(0)}, {-3, runtime.GOMAXPROCS(0)}, {1, 1}, {4, 4}, {64, 64},
	} {
		if got := (Options{Parallel: c.in}).withDefaults().Parallel; got != c.want {
			t.Errorf("Parallel %d resolves to %d, want %d", c.in, got, c.want)
		}
	}
	if got := NewReport(Options{}).Parallel; got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewReport records pool size %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
