package bench

import (
	"fmt"

	"nowomp/internal/simtime"
)

// Table1Row is one row of the paper's Table 1: one application at one
// team size, run on both the non-adaptive base system and the adaptive
// system with no adapt events.
type Table1Row struct {
	App         string
	Procs       int
	SharedBytes int
	// StdTime and AdaTime are the runtimes of the non-adaptive and
	// adaptive variants.
	StdTime simtime.Seconds
	AdaTime simtime.Seconds
	// Traffic columns, from the adaptive run. Bytes is the exact
	// fabric count MB is derived from (the -json report records it).
	Pages    int64
	Bytes    int64
	MB       float64
	Messages int64
	Diffs    int64
	// TrafficIdentical is the paper's headline property: both variants
	// generate exactly the same network traffic.
	TrafficIdentical bool
	// ChecksumOK records that both runs matched the sequential
	// reference bit for bit.
	ChecksumOK bool
}

// Table1 reproduces Table 1: execution times and network traffic on
// the non-adaptive and adaptive systems with no adapt events, for each
// application at each team size. Cells are independent runs and fan
// out across Options.Parallel workers.
func Table1(opt Options, procCounts []int) ([]Table1Row, error) {
	opt = opt.withDefaults()
	if len(procCounts) == 0 {
		procCounts = []int{8, 4, 1}
	}
	type cell struct {
		app   string
		procs int
	}
	var cells []cell
	for _, app := range []string{"gauss", "jacobi", "fft3d", "nbf"} {
		for _, procs := range procCounts {
			cells = append(cells, cell{app, procs})
		}
	}
	return runMatrix(opt, "table1", cells, func(c cell) (Table1Row, error) { return table1Row(opt, c.app, c.procs) })
}

func table1Row(opt Options, app string, procs int) (Table1Row, error) {
	_, std, _, _, err := opt.cell(app, opt.Scale, procs).Execute(nil, nil)
	if err != nil {
		return Table1Row{}, fmt.Errorf("bench: %s/%d non-adaptive: %w", app, procs, err)
	}
	_, ada, _, _, err := opt.adaptive(app, opt.Scale, procs).Execute(nil, nil)
	if err != nil {
		return Table1Row{}, fmt.Errorf("bench: %s/%d adaptive: %w", app, procs, err)
	}
	return Table1Row{
		App:         app,
		Procs:       procs,
		SharedBytes: ada.SharedBytes,
		StdTime:     std.Time,
		AdaTime:     ada.Time,
		Pages:       ada.Pages,
		Bytes:       ada.Bytes,
		MB:          ada.MB(),
		Messages:    ada.Messages,
		Diffs:       ada.Diffs,
		TrafficIdentical: std.Pages == ada.Pages && std.Bytes == ada.Bytes &&
			std.Messages == ada.Messages && std.Diffs == ada.Diffs,
		ChecksumOK: std.Checksum == ada.Checksum,
	}, nil
}

// writeTable1 renders the rows like the paper's Table 1 and records
// each row's adaptive-variant traffic.
func writeTable1(s *sheet, opt Options, rows []Table1Row) {
	fmt.Fprintf(s, "Table 1: execution times and network traffic, no adapt events (scale %g)\n", opt.Scale)
	tabulate(s, "app\tprocs\tshared MB\tstd time\tadaptive time\tpages(4k)\tMB\tmessages\tdiffs\ttraffic identical\tverified",
		"%s\t%d\t%.1f\t%.2fs\t%.2fs\t%d\t%.2f\t%d\t%d\t%v\t%v", rows, func(r Table1Row) []any {
			return []any{r.App, r.Procs, float64(r.SharedBytes) / 1e6, float64(r.StdTime), float64(r.AdaTime),
				r.Pages, r.MB, r.Messages, r.Diffs, r.TrafficIdentical, r.ChecksumOK}
		}, func(r Table1Row) Record {
			return Record{Scenario: fmt.Sprintf("table1/%s/%dp", r.App, r.Procs),
				Seconds: float64(r.AdaTime), Bytes: r.Bytes, Messages: r.Messages}
		})
}
