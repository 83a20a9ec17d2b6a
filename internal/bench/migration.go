package bench

import (
	"nowomp/internal/migrate"
	"nowomp/internal/simtime"
)

// MigrationRow is the section 5.3 what-if for one application: the
// direct cost of adaptation by migration alone.
type MigrationRow struct {
	App string
	// SharedMB is the mapped shared space at the experiment scale.
	SharedMB float64
	// Cost is the measured migration cost at the experiment scale
	// (spawn + image transfer at 8.1 MB/s).
	Cost simtime.Seconds
	// FullScaleCost extrapolates to the paper's problem size.
	FullScaleCost simtime.Seconds
	// PaperCost is the figure reported in section 5.3.
	PaperCost simtime.Seconds
}

// paperMigrationCosts are the section 5.3 measurements.
var paperMigrationCosts = map[string]simtime.Seconds{
	"jacobi": 6.7,
	"fft3d":  6.13,
	"gauss":  6.9,
	"nbf":    7.66,
}

// paperSharedBytes are the shared-memory footprints Table 1 reports
// for the paper's problem sizes. The full-scale what-if extrapolates
// with these rather than this repository's own layouts (our 3D-FFT
// keeps two arrays where NAS FT's working set is larger), so the
// comparison validates the migration cost model against the paper's
// own image sizes.
var paperSharedBytes = map[string]int{
	"gauss":  48_000_000,
	"jacobi": 47_800_000,
	"fft3d":  42_000_000,
	"nbf":    52_000_000,
}

// Migration reproduces the section 5.3 what-if: the direct cost of an
// urgent leave (process creation plus image transfer) per application.
// Each application is run briefly at the experiment scale so the plan
// is priced against a live cluster, and the cost is also extrapolated
// to the paper's problem size for comparison with its 6.1-7.7 s range.
func Migration(opt Options) ([]MigrationRow, error) {
	opt = opt.withDefaults()
	const procs = 4
	return runMatrix(opt, "migration", []string{"gauss", "jacobi", "fft3d", "nbf"}, func(app string) (MigrationRow, error) {
		// A very small live run builds the cluster and its regions.
		// The full pool, like every other experiment: the extra idle
		// hosts cost nothing, and the options' machine specs (sized to
		// the pool) stay applicable.
		_, _, rt, _, err := opt.cell(app, min(opt.Scale, 0.1), procs).Execute(nil, nil)
		if err != nil {
			return MigrationRow{}, err
		}
		c := rt.Cluster()
		plan := migrate.New(c, 1, 2, 0)
		model := c.Model()
		return MigrationRow{
			App:           app,
			SharedMB:      float64(c.TotalSharedBytes()) / 1e6,
			Cost:          plan.Cost,
			FullScaleCost: model.Migration(paperSharedBytes[app] + model.MigrationImageOverhead),
			PaperCost:     paperMigrationCosts[app],
		}, nil
	})
}

// writeMigration renders the what-if table.
func writeMigration(s *sheet, _ Options, rows []MigrationRow) {
	s.WriteString("Section 5.3 what-if: direct cost of adaptation by migration alone\n")
	s.WriteString("(process creation 0.6-0.8 s + image at 8.1 MB/s)\n")
	tabulate(s, "app\tshared MB (scaled)\tmigration cost (scaled)\tfull-scale cost\tpaper", "%s\t%.1f\t%.2fs\t%.2fs\t%.2fs", rows,
		func(r MigrationRow) []any {
			return []any{r.App, r.SharedMB, float64(r.Cost), float64(r.FullScaleCost), float64(r.PaperCost)}
		}, nil)
}
