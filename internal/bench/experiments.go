package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// One results path: every experiment nowomp-bench regenerates is an
// entry of Experiments. An entry runs its typed experiment function —
// whose independent runs are cells of the runMatrix pool — and writes
// the result through tabulate, the one table renderer, which emits the
// -json records of the experiments with natural scenario rows in the
// same pass. Adding an experiment is adding an entry.

// Experiment is one -exp choice of nowomp-bench: a table or figure of
// the paper's evaluation, or one of the matrices beside them.
type Experiment struct {
	// Name is the -exp value.
	Name string
	run  func(opt Options, s *sheet) error
}

// Output is what one experiment produced: the text it prints and the
// records it adds to the -json report (none for the narrative tables).
type Output struct {
	Text    string
	Records []Record
}

// Experiments lists the experiments in the order `-exp all` runs them.
var Experiments = []Experiment{
	entry("table1", func(o Options) ([]Table1Row, error) { return Table1(o, nil) }, writeTable1),
	entry("table2", func(o Options) ([]Table2Cell, error) { return Table2(o, nil) }, writeTable2),
	entry("fig3", func(o Options) ([]Fig3Row, error) { return Fig3(o, nil) }, writeFig3),
	entry("migration", Migration, writeMigration),
	entry("micro", Micro, writeMicro),
	entry("ablation", Ablation, writeAblation),
	entry("tasking", Tasking, writeTasking),
	entry("hetero", Hetero, writeHetero),
	entry("protocols", Protocols, writeProtocols),
}

// entry pairs a typed experiment with the function that writes its
// result.
func entry[T any](name string, run func(Options) (T, error), write func(*sheet, Options, T)) Experiment {
	return Experiment{Name: name, run: func(opt Options, s *sheet) error {
		v, err := run(opt)
		if err == nil {
			write(s, opt, v)
		}
		return err
	}}
}

// Run regenerates the experiment.
func (e Experiment) Run(opt Options) (Output, error) {
	var s sheet
	if err := e.run(opt.withDefaults(), &s); err != nil {
		return Output{}, err
	}
	return Output{Text: s.String(), Records: s.records}, nil
}

// sheet collects one experiment's text and records.
type sheet struct {
	strings.Builder
	records []Record
}

// tabulate is the one table renderer: the tab-separated header, then
// one line per row formatted by format from cells, in aligned columns.
// With record set, each row also becomes a -json record.
func tabulate[R any](s *sheet, header, format string, rows []R, cells func(R) []any, record func(R) Record) {
	w := tabwriter.NewWriter(s, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, header)
	for _, r := range rows {
		fmt.Fprintf(w, format+"\n", cells(r)...)
		if record != nil {
			s.records = append(s.records, record(r))
		}
	}
	w.Flush()
}
