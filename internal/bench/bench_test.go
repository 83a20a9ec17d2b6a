package bench

import (
	"math"
	"strings"
	"testing"

	"nowomp/internal/simtime"
)

// tiny keeps unit-test runs fast; experiment shapes are asserted where
// they are robust at small scale, mechanics everywhere.
func tiny() Options { return Options{Scale: 0.06, Hosts: 10} }

// render is an experiment's printed text for a result: its entry's
// writer, under tiny's options.
func render[T any](write func(*sheet, Options, T), v T) string {
	var s sheet
	write(&s, tiny(), v)
	return s.String()
}

func TestTable1ShapesAndParity(t *testing.T) {
	rows, err := Table1(tiny(), []int{4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byApp := map[string]map[int]Table1Row{}
	for _, r := range rows {
		if !r.TrafficIdentical {
			t.Errorf("%s/%d: adaptive and non-adaptive traffic differ", r.App, r.Procs)
		}
		if !r.ChecksumOK {
			t.Errorf("%s/%d: checksums differ between variants", r.App, r.Procs)
		}
		// The headline: no cost to supporting adaptivity.
		if r.AdaTime != r.StdTime {
			t.Errorf("%s/%d: adaptive %.3fs vs non-adaptive %.3fs, want identical",
				r.App, r.Procs, float64(r.AdaTime), float64(r.StdTime))
		}
		if byApp[r.App] == nil {
			byApp[r.App] = map[int]Table1Row{}
		}
		byApp[r.App][r.Procs] = r
	}
	for app, m := range byApp {
		if m[1].Pages != 0 || m[1].Diffs != 0 {
			t.Errorf("%s single-process run has traffic", app)
		}
		if m[4].Pages <= m[1].Pages {
			t.Errorf("%s: 4-proc run should fetch pages", app)
		}
	}
	// Diff column shape: only Jacobi diffs.
	if byApp["jacobi"][4].Diffs == 0 {
		t.Error("jacobi should fetch diffs at 4 procs")
	}
	for _, app := range []string{"gauss", "fft3d", "nbf"} {
		if byApp[app][4].Diffs != 0 {
			t.Errorf("%s fetched diffs, want 0", app)
		}
	}
	text := render(writeTable1, rows)
	if !strings.Contains(text, "jacobi") || !strings.Contains(text, "traffic identical") || !strings.Contains(text, "(scale 0.06)") {
		t.Error("table1 output malformed")
	}
}

func TestTable2CellMechanics(t *testing.T) {
	if testing.Short() {
		t.Skip("half-minute experiment; skipped in -short (CI race) runs")
	}
	// One cell with a reduced pair count and scale floor: asserts the
	// methodology (events fire, average nodes fractional, cost finite
	// and positive).
	opt := tiny()
	opt.Pairs = 2
	cell, err := Table2Cell1(opt, "nbf", 4, "end")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Adaptations < 2 {
		t.Fatalf("adaptations = %d, want >= 2", cell.Adaptations)
	}
	if cell.AvgNodes <= 3 || cell.AvgNodes >= 4 {
		t.Fatalf("avg nodes = %.3f, want in (3,4)", cell.AvgNodes)
	}
	if cell.AvgCost <= 0 {
		t.Fatalf("avg cost = %v, want positive", cell.AvgCost)
	}
	if cell.AdaTime <= cell.RefTime {
		t.Fatalf("adaptive run %.3fs must exceed baseline %.3fs", float64(cell.AdaTime), float64(cell.RefTime))
	}
	out := render(writeTable2, []Table2Cell{cell})
	if !strings.Contains(out, "nbf") {
		t.Error("table2 output malformed")
	}
}

func TestFig3TheoryMatchesPaper(t *testing.T) {
	// The paper's Figure 3: up to 50% for node 7, up to 30% for node 3.
	if got := Fig3Theory(7, 8); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("theory(7) = %g, want 0.5", got)
	}
	if got := Fig3Theory(3, 8); math.Abs(got-16.0/56) > 1e-12 {
		t.Fatalf("theory(3) = %g, want %g", got, 16.0/56)
	}
	// The geometry is symmetric around the middle: a leave near either
	// end moves the most, the two middle slots (3 and 4 for t=8) tie
	// for the least.
	if got := Fig3Theory(4, 8); got != Fig3Theory(3, 8) || got >= Fig3Theory(7, 8) {
		t.Fatalf("middle leavers must tie for the least: theory(4) = %g", got)
	}
	if Fig3Theory(1, 8) <= Fig3Theory(3, 8) {
		t.Fatal("near-end leaver must move more than a middle one")
	}
}

func TestFig3MeasurementTracksTheory(t *testing.T) {
	rows, err := Fig3(tiny(), []int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	f3, f7 := rows[0], rows[1]
	if f7.MovedFrac <= f3.MovedFrac {
		t.Fatalf("end leave moved %.1f%%, middle %.1f%%: end must move more",
			100*f7.MovedFrac, 100*f3.MovedFrac)
	}
	// Within a loose band of the geometric prediction (boundary pages
	// and rounding add noise at small scale).
	for _, r := range rows {
		if r.MovedFrac < 0.5*r.TheoryFrac || r.MovedFrac > 1.8*r.TheoryFrac {
			t.Errorf("slot %d: measured %.1f%% vs predicted %.1f%%, outside band",
				r.LeaverSlot, 100*r.MovedFrac, 100*r.TheoryFrac)
		}
	}
	if out := render(writeFig3, rows); !strings.Contains(out, "leaver id") {
		t.Error("fig3 output malformed")
	}
}

func TestMigrationWhatIf(t *testing.T) {
	rows, err := Migration(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Cost <= 0.7 {
			t.Errorf("%s: migration cost %.2fs must exceed the spawn time", r.App, float64(r.Cost))
		}
		// Full-scale extrapolation should land near the paper's value.
		if rel := math.Abs(float64(r.FullScaleCost-r.PaperCost)) / float64(r.PaperCost); rel > 0.25 {
			t.Errorf("%s: full-scale migration %.2fs vs paper %.2fs (off %.0f%%)",
				r.App, float64(r.FullScaleCost), float64(r.PaperCost), 100*rel)
		}
	}
	if out := render(writeMigration, rows); !strings.Contains(out, "8.1 MB/s") {
		t.Error("migration output malformed")
	}
}

func TestMicroShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("half-minute experiment; skipped in -short (CI race) runs")
	}
	m, err := Micro(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// M3: cost grows with size.
	if len(m.SizeSweep) != 3 {
		t.Fatalf("size sweep = %d points", len(m.SizeSweep))
	}
	if !(m.SizeSweep[2].Cost > m.SizeSweep[0].Cost) {
		t.Errorf("M3: cost must grow with size: %+v", m.SizeSweep)
	}
	// M4: cost shrinks as processes grow.
	if len(m.ProcSweep) != 3 {
		t.Fatalf("proc sweep = %d points", len(m.ProcSweep))
	}
	if !(m.ProcSweep[0].Cost > m.ProcSweep[2].Cost) {
		t.Errorf("M4: leave from 4 procs must cost more than from 8: %+v", m.ProcSweep)
	}
	// M2: strong positive correlation with the bottleneck link.
	if m.LinkCorr < 0.7 {
		t.Errorf("M2: correlation(cost, max-link) = %.3f, want >= 0.7", m.LinkCorr)
	}
	// M5: simultaneous cheaper than successive, with fewer GCs.
	if !(m.Simultaneous.TogetherCost < m.Simultaneous.SuccessiveCost) {
		t.Errorf("M5: together %.3fs must beat successive %.3fs",
			float64(m.Simultaneous.TogetherCost), float64(m.Simultaneous.SuccessiveCost))
	}
	if m.Simultaneous.TogetherGCs >= m.Simultaneous.SuccessiveGCs {
		t.Errorf("M5: together used %d GCs, successive %d, want fewer",
			m.Simultaneous.TogetherGCs, m.Simultaneous.SuccessiveGCs)
	}
	// M6: the second leave of the same host moves fewer pages.
	if len(m.Repeated) < 2 || m.Repeated[1].PagesMoved >= m.Repeated[0].PagesMoved {
		t.Errorf("M6: repeated leaves should move fewer pages: %+v", m.Repeated)
	}
	if out := render(writeMicro, m); !strings.Contains(out, "M5") {
		t.Error("micro output malformed")
	}
}

func TestAblationShapes(t *testing.T) {
	a, err := Ablation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// A1: both strategies measured; swap-last predicted to move more
	// data for a middle leave (why reassignment is an open problem).
	if len(a.Reassign) != 2 {
		t.Fatalf("reassign rows = %d", len(a.Reassign))
	}
	if a.Reassign[1].MovedFrac <= a.Reassign[0].MovedFrac {
		t.Errorf("A1: swap-last predicted %.1f%% vs shift-down %.1f%%: geometry says swap-last moves more",
			100*a.Reassign[1].MovedFrac, 100*a.Reassign[0].MovedFrac)
	}
	// A2: direct handoff relieves the master-link bottleneck.
	if len(a.Handoff) != 2 {
		t.Fatalf("handoff rows = %d", len(a.Handoff))
	}
	if !(a.Handoff[1].MaxLinkBytes < a.Handoff[0].MaxLinkBytes) {
		t.Errorf("A2: direct handoff max-link %d must beat via-master %d",
			a.Handoff[1].MaxLinkBytes, a.Handoff[0].MaxLinkBytes)
	}
	if !(a.Handoff[1].LeaveElapsed < a.Handoff[0].LeaveElapsed) {
		t.Errorf("A2: direct handoff %.3fs must beat via-master %.3fs",
			float64(a.Handoff[1].LeaveElapsed), float64(a.Handoff[0].LeaveElapsed))
	}
	// A3: urgency is monotone in the grace period.
	if len(a.Grace) != 4 {
		t.Fatalf("grace rows = %d", len(a.Grace))
	}
	if !a.Grace[0].Urgent {
		t.Error("A3: 0.5 s grace against a 10 s phase must go urgent")
	}
	if a.Grace[3].Urgent {
		t.Error("A3: 30 s grace must stay normal")
	}
	for i := 1; i < len(a.Grace); i++ {
		if a.Grace[i].Urgent && !a.Grace[i-1].Urgent {
			t.Error("A3: urgency must be monotone decreasing in grace")
		}
	}
	// Urgent leaves must cost more end to end than normal ones.
	if !(a.Grace[0].RunTime > a.Grace[3].RunTime) {
		t.Errorf("A3: urgent run %.2fs must exceed normal run %.2fs",
			float64(a.Grace[0].RunTime), float64(a.Grace[3].RunTime))
	}
	if out := render(writeAblation, a); !strings.Contains(out, "A3") {
		t.Error("ablation output malformed")
	}
}

func TestInterpolateRef(t *testing.T) {
	got := interpolateRef(7.5, 7, 8, 10, 8)
	if math.Abs(float64(got)-9) > 1e-12 {
		t.Fatalf("interpolate(7.5) = %v, want 9", got)
	}
	if interpolateRef(7, 7, 8, 10, 8) != 10 {
		t.Fatal("lower endpoint wrong")
	}
	if interpolateRef(5, 5, 5, 3, 99) != 3 {
		t.Fatal("degenerate interval wrong")
	}
}

func TestRefPiecewise(t *testing.T) {
	base := map[int]simtime.Seconds{6: 12, 7: 10, 8: 9}
	if got := refPiecewise(6.5, base); math.Abs(float64(got)-11) > 1e-12 {
		t.Fatalf("piecewise(6.5) = %v, want 11", got)
	}
	if got := refPiecewise(7.5, base); math.Abs(float64(got)-9.5) > 1e-12 {
		t.Fatalf("piecewise(7.5) = %v, want 9.5", got)
	}
}

func TestPearson(t *testing.T) {
	if got := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", got)
	}
	if got := pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %g", got)
	}
	if got := pearson([]float64{1, 1}, []float64{2, 3}); got != 0 {
		t.Fatalf("degenerate correlation = %g, want 0", got)
	}
}
