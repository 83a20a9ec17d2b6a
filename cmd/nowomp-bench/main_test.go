package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell does: bad input is a
// one-line error on stderr and a non-zero status, never a panic, and a
// good invocation prints its table on stdout.
func TestRun(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	cases := []struct {
		name   string
		args   []string
		status int
		stdout []string // substrings stdout must contain
		stderr string   // substring the one stderr line must contain ("" = stderr empty)
	}{
		{"unknown experiment", []string{"-exp", "table9"}, 1, nil,
			`unknown experiment "table9" (want table1, table2, fig3, migration, micro, ablation, tasking, hetero, protocols, all)`},
		{"malformed machines", []string{"-exp", "protocols", "-machines", "99=2"}, 1, nil, `machine "99" not in [0,10)`},
		{"policy without loads", []string{"-exp", "hetero", "-policy", "high=2,low=0.5"}, 1, nil, "needs load traces"},
		{"pool below the team", []string{"-exp", "table1", "-hosts", "4", "-q"}, 1, nil, "hosts 4 must cover the team of 8"},
		{"unknown flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
		{"no pairs", []string{"-exp", "fig3", "-pairs", "0"}, 1, nil, "-pairs 0: want at least 1"},
		{"negative pool", []string{"-exp", "fig3", "-parallel", "-3"}, 1, nil, "-parallel -3: want 0 (GOMAXPROCS) or more"},
		// An explicit zero is not the default: Normalize would read it
		// as one, so the flag check refuses it first.
		{"zero scale", []string{"-exp", "table1", "-scale", "0", "-q"}, 1, nil, "-scale 0: want a positive value"},
		{"zero hosts", []string{"-exp", "fig3", "-hosts", "0", "-q"}, 1, nil, "-hosts 0: want a positive value"},
		{"zero grace", []string{"-exp", "fig3", "-grace", "0", "-q"}, 1, nil, "-grace 0: want a positive value"},
		{"fig3", []string{"-exp", "fig3", "-scale", "0.06", "-q"}, 0,
			[]string{"Figure 3: data re-distribution", "leaver id", "[fig3 regenerated in"}, ""},
		{"tasking with a report", []string{"-exp", "tasking", "-scale", "0.06", "-q", "-json", jsonPath}, 0,
			[]string{"Tasking vs loop schedules", "[json report written to " + jsonPath + "]"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.status {
				t.Errorf("status %d, want %d\nstderr: %s", got, c.status, stderr.String())
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			errText := stderr.String()
			switch {
			case c.stderr == "" && errText != "":
				t.Errorf("unexpected stderr: %s", errText)
			case !strings.Contains(errText, c.stderr):
				t.Errorf("stderr lacks %q: %s", c.stderr, errText)
			case c.status == 1 && strings.Count(errText, "\n") != 1:
				t.Errorf("error is not one line: %q", errText)
			}
		})
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"scenario": "tasking/`); n != 6 {
		t.Errorf("report has %d tasking records, want 6:\n%s", n, data)
	}
}

// The fence's goldens: every experiment's printed tables and the -json
// report of `-exp all -scale 0.06`, with the lines that vary from run to
// run dropped (see fenceText). Regenerate with
// NOWOMP_REGEN_GOLDEN=experiments, and only for an intended change to a
// table or a simulated number.
const (
	fenceStdoutPath = "testdata/experiments-0.06.txt"
	fenceReportPath = "testdata/experiments-0.06.json"
)

// TestExperimentsFence pins the whole tool's output, not only the
// simulated columns TestMatrixGolden holds: the text of all nine
// experiments and the -json report, byte for byte, at -parallel 1,
// -parallel 4 and with -parallel omitted (the default pool) against
// the same goldens.
func TestExperimentsFence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all nine experiments three times")
	}
	regen := os.Getenv("NOWOMP_REGEN_GOLDEN") == "experiments"
	for _, parallel := range []string{"1", "4", "default"} {
		t.Run("parallel "+parallel, func(t *testing.T) {
			jsonPath := filepath.Join(t.TempDir(), "bench.json")
			var stdout, stderr bytes.Buffer
			args := []string{"-exp", "all", "-scale", "0.06", "-q", "-json", jsonPath}
			if parallel != "default" {
				args = append(args, "-parallel", parallel)
			}
			if got := run(args, &stdout, &stderr); got != 0 {
				t.Fatalf("exited %d: %s", got, stderr.String())
			}
			report, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			text := fenceText(strings.ReplaceAll(stdout.String(), jsonPath, "bench.json"), "regenerated in")
			rep := fenceText(string(report), `"wall_seconds"`, `"parallel"`)
			if regen {
				if parallel == "1" {
					writeGolden(t, fenceStdoutPath, text)
					writeGolden(t, fenceReportPath, rep)
				}
				return
			}
			checkGolden(t, fenceStdoutPath, text)
			checkGolden(t, fenceReportPath, rep)
		})
	}
}

// fenceText drops every line containing one of the markers: the wall
// clock and the pool size, the only parts of the output that may vary.
func fenceText(s string, markers ...string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		keep := true
		for _, m := range markers {
			keep = keep && !strings.Contains(line, m)
		}
		if keep {
			b.WriteString(line)
		}
	}
	return b.String()
}

func writeGolden(t *testing.T, path, text string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// checkGolden compares text with the golden file and names the first
// line that differs.
func checkGolden(t *testing.T, path, text string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(data) {
		return
	}
	got, want := strings.Split(text, "\n"), strings.Split(string(data), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs:\n  got  %q\n  want %q", path, i+1, g, w)
		}
	}
}

// TestExperimentTableDrivesUsage pins that the -exp usage string comes
// from the same table the dispatcher walks.
func TestExperimentTableDrivesUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-h"}, &stdout, &stderr); got != 0 {
		t.Fatalf("-h exited %d", got)
	}
	if want := "experiment: " + experimentNames(); !strings.Contains(stderr.String(), want) {
		t.Errorf("usage lacks %q:\n%s", want, stderr.String())
	}
}
