package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The worker pool the experiments run on. Every cell of every
// experiment is an independent simulation — it owns its runtime, and
// with it its engine, fabric and cluster — and the engine makes each
// one bit-reproducible in isolation, so cells can fan out across real
// cores with no effect on the results. Cells write into index-addressed
// slots, so the assembled tables (and the -json report) are
// byte-identical at any parallelism level; only the wall clock changes.
// An experiment whose runs depend on earlier ones (a schedule sized from
// a baseline) hands the pool one cell list per stage.

// runCells executes n independent cells on a pool of parallel workers
// (parallel <= 1 runs them inline, in order, stopping at the first
// failure). Each worker pulls the next cell index from a shared counter,
// so cells start in index order. Once the pool drains, the lowest-index
// failure wins, as it does inline: an error is returned, a panic is
// re-raised with the cell's value on the caller's goroutine — left on a
// worker, it would kill the process past any recover of the caller's.
// (Panics from inside a simulation already carry the proc's stack in
// their value; see engine.)
func runCells(parallel, n int, cell func(i int) error) error {
	if parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs, panics := make([]error, n), make([]any, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(parallel, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() { panics[i] = recover() }()
					errs[i] = cell(i)
				}()
			}
		}()
	}
	wg.Wait()
	for i := range n {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// progressMeter emits one line per completed cell — count, elapsed
// wall time and a remaining-time estimate — so multi-minute scale-1.0
// matrices are monitorable. It writes to an out-of-band stream (the
// tool passes stderr) and never touches the experiment results, so the
// stdout/-json contract is unaffected. A nil meter is silent; ticks
// may arrive from any pool worker.
type progressMeter struct {
	w     io.Writer
	label string
	total int
	start time.Time

	mu   sync.Mutex
	done int
}

func newProgressMeter(w io.Writer, label string, total int) *progressMeter {
	if w == nil {
		return nil
	}
	return &progressMeter{w: w, label: label, total: total, start: time.Now()}
}

func (m *progressMeter) tick() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done++
	elapsed := time.Since(m.start)
	line := fmt.Sprintf("[bench] %s %d/%d cells, %s elapsed",
		m.label, m.done, m.total, fmtDuration(elapsed))
	if m.done < m.total {
		eta := time.Duration(float64(elapsed) / float64(m.done) * float64(m.total-m.done))
		line += fmt.Sprintf(", ~%s left", fmtDuration(eta))
	}
	fmt.Fprintln(m.w, line)
}

// fmtDuration renders a duration in whole seconds (1m32s style): ETA
// estimates are too coarse for sub-second digits to mean anything.
func fmtDuration(d time.Duration) string {
	return d.Round(time.Second).String()
}

// runMatrix runs one cell per key through runCells, with per-cell
// progress reporting to opt.Progress under the experiment's label, and
// returns the results in key order. Every simulation of every
// experiment runs inside one of its cells.
func runMatrix[K, R any](opt Options, label string, keys []K, cell func(K) (R, error)) ([]R, error) {
	m := newProgressMeter(opt.Progress, label, len(keys))
	out := make([]R, len(keys))
	err := runCells(opt.Parallel, len(keys), func(i int) (err error) {
		out[i], err = cell(keys[i])
		m.tick()
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
