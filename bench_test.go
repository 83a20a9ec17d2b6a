package nowomp_test

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"nowomp/internal/apps"
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

// BenchmarkAxpySub and BenchmarkStencil5 time the two float32 row
// primitives under Gauss's elimination and Jacobi's stencil on one
// page-sized chunk (1024 elements, L1-resident), the platform's
// implementation beside the Go loop it is held to, each reporting the
// elements it changed into a 16-word bitmap; ns/op over 1024 is ns per
// element, and SetBytes counts the output row.
func BenchmarkAxpySub(b *testing.B) {
	for _, k := range []struct {
		name string
		f    func(dst, x []float32, a float32, chg []uint64, at int)
	}{{"impl", apps.AxpySub}, {"go", apps.AxpySubGo}} {
		b.Run(k.name, func(b *testing.B) {
			dst, x := rowChunk(0), rowChunk(1)
			var chg [16]uint64
			b.SetBytes(int64(4 * len(dst)))
			for b.Loop() {
				// 1e-9 keeps dst finite for any b.N.
				k.f(dst, x, 1e-9, chg[:], 0)
			}
		})
	}
}

func BenchmarkStencil5(b *testing.B) {
	for _, k := range []struct {
		name string
		f    func(out, up, down, mid []float32, chg []uint64, at int)
	}{{"impl", apps.Stencil5}, {"go", apps.Stencil5Go}} {
		b.Run(k.name, func(b *testing.B) {
			out, up, down, mid := rowChunk(0), rowChunk(1), rowChunk(2), rowChunk(3)
			var chg [16]uint64
			b.SetBytes(int64(4 * len(out)))
			for b.Loop() {
				k.f(out, up, down, mid, chg[:], 0)
			}
		})
	}
}

// BenchmarkMergeSpan times mergesort's merge of two sorted runs of
// 256 Ki keys in [0,1), cut into 512-key page spans as the kernel's
// WriteSpan loop cuts them: the bit-pattern merge beside the float
// merge it is held to. ns/op over 512 Ki is ns per key.
func BenchmarkMergeSpan(b *testing.B) {
	const half = 1 << 18
	left, right := sortKeys(half, 1), sortKeys(half, 2)
	slices.Sort(left)
	slices.Sort(right)
	out := make([]float64, 2*half)
	for _, k := range []struct {
		name string
		f    func(out, left, right []float64, i, j int) (int, int)
	}{{"impl", apps.MergeBits}, {"go", apps.MergeSpan}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(out)))
			for b.Loop() {
				i, j := 0, 0
				for q := 0; q < len(out); q += 512 {
					i, j = k.f(out[q:q+512], left, right, i, j)
				}
			}
		})
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

// BenchmarkSortLeaf times one mergesort leaf, 8 Ki keys in [0,1)
// copied in and sorted: the radix sort beside sort.Float64s, whose
// bits it reproduces.
func BenchmarkSortLeaf(b *testing.B) {
	keys := sortKeys(1<<13, 3)
	buf, aux := make([]float64, len(keys)), make([]float64, len(keys))
	for _, k := range []struct {
		name string
		f    func(a []float64)
	}{{"impl", func(a []float64) { apps.SortFloat64s(a, aux) }}, {"sort", sort.Float64s}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(buf)))
			for b.Loop() {
				copy(buf, keys)
				k.f(buf)
			}
		})
	}
}

// sortKeys returns n keys in [0,1) from a fixed seed.
func sortKeys(n int, seed uint64) []float64 {
	r := rand.New(rand.NewPCG(seed, 0))
	v := make([]float64, n)
	for i := range v {
		v[i] = r.Float64()
	}
	return v
}

// rowChunk returns one page of finite, normal float32s.
func rowChunk(seed int) []float32 {
	v := make([]float32, 1024)
	for i := range v {
		v[i] = 1 + float32((i*31+seed*17)%97)/97
	}
	return v
}

// BenchmarkPageScanDense, Sparse and Clean time the twin-against-page
// scan every interval close runs, the platform's implementation beside
// the Go loop it is held to, with every word, one word per mask lane
// and no word modified. "hot" rescans one L1-resident pair; "cold"
// walks 4096 pairs (32 MB, past the last-level cache), which is nearer
// what a barrier over a large region sees.
func BenchmarkPageScanDense(b *testing.B)  { benchPageScan(b, 1) }
func BenchmarkPageScanSparse(b *testing.B) { benchPageScan(b, 64) }
func BenchmarkPageScanClean(b *testing.B)  { benchPageScan(b, page.Words) }

var sinkMask page.Mask

func benchPageScan(b *testing.B, step int) {
	for _, k := range []struct {
		name string
		f    func(twin, current []byte) page.Mask
	}{{"impl", page.Scan}, {"go", page.ScanGo}} {
		for _, ws := range []struct {
			name  string
			pairs int
		}{{"hot", 1}, {"cold", 4096}} {
			b.Run(k.name+"/"+ws.name, func(b *testing.B) {
				buf := make([]byte, 2*page.Size*ws.pairs)
				for i := range buf {
					buf[i] = byte(i * 131 >> 3)
				}
				pair := func(p int) (tw, cur []byte) {
					return buf[2*p*page.Size:][:page.Size], buf[(2*p+1)*page.Size:][:page.Size]
				}
				for p := 0; p < ws.pairs; p++ {
					tw, cur := pair(p)
					copy(cur, tw)
					for w := 0; w < page.Words; w += step {
						cur[w*page.WordBytes] ^= 1
					}
				}
				b.SetBytes(page.Size)
				p := 0
				for b.Loop() {
					sinkMask = k.f(pair(p))
					if p++; p == ws.pairs {
						p = 0
					}
				}
			})
		}
	}
}
