package nowomp_test

import (
	"testing"

	"nowomp/internal/bench"
	"nowomp/internal/dsm"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// One benchmark per table and figure of the paper's evaluation
// section. Each iteration regenerates the artifact at a reduced scale
// and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as a quick reproduction pass.
// The full tables, at larger scales and with formatted output, come
// from `go run ./cmd/nowomp-bench`.

func benchOpts() bench.Options { return bench.Options{Scale: 0.08, Hosts: 10} }

// BenchmarkTable1 regenerates Table 1 (adaptive vs non-adaptive, no
// adapt events): the headline is zero overhead and identical traffic.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1(benchOpts(), []int{8, 4, 1})
		if err != nil {
			b.Fatal(err)
		}
		var overhead float64
		for _, r := range rows {
			if !r.TrafficIdentical || !r.ChecksumOK {
				b.Fatalf("%s/%d: adaptive parity broken", r.App, r.Procs)
			}
			overhead += float64(r.AdaTime - r.StdTime)
		}
		b.ReportMetric(overhead, "adaptive-overhead-s")
	}
}

// BenchmarkTable2 regenerates one representative Table 2 cell per
// iteration (Jacobi, n=8, end leaver); the metric is the average cost
// per adaptation, the quantity Table 2 reports (paper: 2-5 s typical).
func BenchmarkTable2(b *testing.B) {
	opt := benchOpts()
	opt.Pairs = 2
	for i := 0; i < b.N; i++ {
		cell, err := bench.Table2Cell1(opt, "jacobi", 8, "end")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(cell.AvgCost), "s/adaptation")
	}
}

// BenchmarkFig3 regenerates Figure 3's two highlighted points: data
// moved for a leave of process 7 (up to 50%) versus process 3 (up to
// 30%).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig3(benchOpts(), []int{3, 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[1].MovedFrac, "end-moved-%")
		b.ReportMetric(100*rows[0].MovedFrac, "middle-moved-%")
	}
}

// BenchmarkMigration regenerates the section 5.3 what-if: the direct
// cost of adaptation by migration alone, extrapolated to the paper's
// problem sizes (paper: 6.1-7.7 s).
func BenchmarkMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Migration(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if c := float64(r.FullScaleCost); c > worst {
				worst = c
			}
		}
		b.ReportMetric(worst, "worst-full-scale-migration-s")
	}
}

// BenchmarkMicro regenerates the section 5.4 micro-analysis; the
// metric is the cost-vs-max-link correlation (the paper's key claim).
func BenchmarkMicro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := bench.Micro(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.LinkCorr, "cost-vs-maxlink-corr")
		b.ReportMetric(float64(m.Simultaneous.SuccessiveCost-m.Simultaneous.TogetherCost), "simultaneous-savings-s")
	}
}

// BenchmarkAblation regenerates the design-choice ablations (id
// reassignment, leave handoff, grace sweep).
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := bench.Ablation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Handoff[0].MaxLinkBytes)/float64(a.Handoff[1].MaxLinkBytes), "handoff-bottleneck-relief-x")
	}
}

// BenchmarkHomeClose times an HLRC barrier closing 256 pages, each
// changed in one word through a write-once span by a host that is not
// its home: the write fault, the take, and the priced push the home
// commits. The home's copy settles the pushed words only when something
// reads it, which nothing here does, so the loop is what the close
// costs a writer whose home is a reader of last resort — the shape of
// a kernel's rows. ns/page is per page closed.
func BenchmarkHomeClose(b *testing.B) {
	const pages = 256
	c, err := dsm.New(dsm.Config{MaxHosts: 2, Protocol: dsm.HLRC})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Join(1); err != nil {
		b.Fatal(err)
	}
	r, err := c.Alloc("close", 2*pages*page.Size) // page p is homed at host p%2
	if err != nil {
		b.Fatal(err)
	}
	w, clk := c.Host(1), simtime.NewClock(0)
	for p := 0; p < 2*pages; p += 2 {
		w.ReadSpan(r.ID, p*page.Size, page.WordBytes, clk) // the writer's copies of host 0's pages
	}
	active, arrivals := []dsm.HostID{0, 1}, make([]simtime.Seconds, 2)
	closes := 0
	for b.Loop() {
		word := closes % page.Words
		for p := 0; p < 2*pages; p += 2 {
			span, ch := w.WriteSpanOnce(r.ID, p*page.Size+word*page.WordBytes, page.WordBytes, page.WordBytes, clk)
			span[0]++
			ch.Set(0)
		}
		arrivals[1] = clk.Now()
		c.Barrier(active, arrivals)
		closes++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(closes*pages), "ns/page")
}
