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
