package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nowomp/internal/omp"
)

// Determinism stress tests for the discrete-event engine: simulated
// outcomes — virtual seconds, fabric bytes and messages — must be
// identical whatever the host scheduler does. The kernels here are the
// interleaving-sensitive ones: the migratory lock kernel (grant order
// was the classic leak), a claim-based loop schedule, and a
// work-stealing tasking point.

// detFingerprint renders every interleaving-sensitive measurement of a
// small matrix into one comparable string.
func detFingerprint(t *testing.T) string {
	t.Helper()
	opt := Options{Scale: 0.06}.withDefaults()

	var b []byte
	add := func(format string, args ...any) { b = fmt.Appendf(b, format+"\n", args...) }

	for _, proto := range protoKinds {
		row, err := migratoryRun(opt, nowShape{name: "homog"}, proto)
		if err != nil {
			t.Fatal(err)
		}
		add("migratory/%s: %.17g %d %d %d %d", proto, float64(row.Time), row.Bytes, row.Messages, row.Diffs, row.Flushes)
	}
	for _, sched := range []omp.Schedule{omp.Dynamic, omp.Guided} {
		row, err := heteroRun(opt, nowShape{name: "homog"}, sched)
		if err != nil {
			t.Fatal(err)
		}
		add("loop/%s: %.17g %d %d", row.Schedule, float64(row.Time), row.Bytes, row.Messages)
	}
	row, err := taskingPoint(opt, "skewed", loopItems(opt.Scale), 4)
	if err != nil {
		t.Fatal(err)
	}
	add("tasking/skewed/4: %.17g %.17g %d %d %d",
		float64(row.Tasks), float64(row.Dynamic), row.TasksBytes, row.TasksMessages, row.Steals)
	return string(b)
}

// gmpFingerprint persists across -cpu reruns of the test binary, so
// `go test -run Determinism -cpu 1,4,16` compares the fingerprint
// across GOMAXPROCS settings within one process (the CI determinism
// gate runs exactly that).
var gmpFingerprint struct {
	sync.Mutex
	byKey map[string]string
}

// TestDeterminismAcrossGOMAXPROCS asserts identical simulated times
// and fabric counters whatever GOMAXPROCS is: under -cpu 1,4,16 the
// later runs must reproduce the first run's fingerprint bit for bit.
// This is the test that pins the TestTaskingDeterministic flake fix —
// the pre-engine runtime produced different fft3d/hetero bytes at
// GOMAXPROCS 1 and 8, and jittered on claim-based schedules under CPU
// contention.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	fp := detFingerprint(t)
	gmpFingerprint.Lock()
	defer gmpFingerprint.Unlock()
	if gmpFingerprint.byKey == nil {
		gmpFingerprint.byKey = make(map[string]string)
	}
	prev, ok := gmpFingerprint.byKey["matrix"]
	if !ok {
		gmpFingerprint.byKey["matrix"] = fp
		t.Logf("GOMAXPROCS=%d recorded baseline fingerprint", runtime.GOMAXPROCS(0))
		return
	}
	if fp != prev {
		t.Errorf("fingerprint diverged at GOMAXPROCS=%d:\nfirst run:\n%s\nthis run:\n%s",
			runtime.GOMAXPROCS(0), prev, fp)
	}
}

// TestMigratoryInterleavingInvariance is the engine-core property
// test: the migratory lock kernel — the most interleaving-sensitive
// kernel in the suite, every round a contended lock grant — must
// produce identical results across 50 seeded runs while the host
// scheduler is actively perturbed (GOMAXPROCS cycling, background
// goroutine noise preempting the procs).
func TestMigratoryInterleavingInvariance(t *testing.T) {
	opt := Options{Scale: 0.06}.withDefaults()
	base, err := migratoryRun(opt, nowShape{name: "homog"}, "tmk")
	if err != nil {
		t.Fatal(err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() { stop.Store(true); wg.Wait() }()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { // scheduler noise: busy yield loops
			defer wg.Done()
			for !stop.Load() {
				runtime.Gosched()
			}
		}()
	}

	for seed := 1; seed < 50; seed++ {
		runtime.GOMAXPROCS(1 + seed%4)
		row, err := migratoryRun(opt, nowShape{name: "homog"}, "tmk")
		if err != nil {
			t.Fatal(err)
		}
		if row != base {
			t.Fatalf("seeded run %d diverged:\nbase: %+v\nrun:  %+v", seed, base, row)
		}
	}
}
