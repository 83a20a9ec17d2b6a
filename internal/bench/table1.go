package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

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
	rows := make([]Table1Row, len(cells))
	err := opt.runMatrix("table1", len(cells), func(i int) error {
		row, err := table1Row(opt, cells[i].app, cells[i].procs)
		rows[i] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
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

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row, scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: execution times and network traffic, no adapt events (scale %g)\n", scale)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "app\tprocs\tshared MB\tstd time\tadaptive time\tpages(4k)\tMB\tmessages\tdiffs\ttraffic identical\tverified")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.2fs\t%.2fs\t%d\t%.2f\t%d\t%d\t%v\t%v\n",
			r.App, r.Procs, float64(r.SharedBytes)/1e6,
			float64(r.StdTime), float64(r.AdaTime),
			r.Pages, r.MB, r.Messages, r.Diffs, r.TrafficIdentical, r.ChecksumOK)
	}
	w.Flush()
	return b.String()
}
