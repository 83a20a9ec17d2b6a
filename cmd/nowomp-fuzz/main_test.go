package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell does: a malformed command
// line is status 2, a report that cannot be written is one line on
// stderr and status 1, and a small clean batch is status 0 with one
// progress line per scenario (none under -q), the verdict line and the
// report where -json said.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "fuzz.json")
	cases := []struct {
		name   string
		args   []string
		status int
		stdout []string // substrings stdout must contain
		lines  int      // lines stdout must have
		stderr string   // substring the one stderr line must contain ("" = stderr empty)
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, nil, 0, "flag provided but not defined"},
		{"malformed count", []string{"-count", "many"}, 2, nil, 0, `invalid value "many"`},
		{"unwritable report", []string{"-count", "1", "-json", filepath.Join(dir, "no", "such", "dir", "fuzz.json")}, 1,
			[]string{"spec   0 pass"}, 1, "no such file or directory"},
		{"two scenarios", []string{"-count", "2", "-json", report}, 0,
			[]string{"spec   0 pass", "spec   1 pass", "seed 1999: 2/2 scenarios passed, 0 failed"}, 3, ""},
		{"quiet", []string{"-count", "2", "-seed", "7", "-q"}, 0,
			[]string{"seed 7: 2/2 scenarios passed, 0 failed"}, 1, ""},
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
			if got := strings.Count(stdout.String(), "\n"); got != c.lines {
				t.Errorf("stdout has %d lines, want %d:\n%s", got, c.lines, stdout.String())
			}
			errText := stderr.String()
			switch {
			case c.stderr == "" && errText != "":
				t.Errorf("unexpected stderr: %s", errText)
			case !strings.Contains(errText, c.stderr):
				t.Errorf("stderr lacks %q: %s", c.stderr, errText)
			case c.status == 1 && (strings.Count(errText, "\n") != 1 || !strings.HasPrefix(errText, "nowomp-fuzz: ")):
				t.Errorf("error is not one nowomp-fuzz line: %q", errText)
			}
		})
	}
	if data, err := os.ReadFile(report); err != nil || !bytes.Contains(data, []byte(`"passed": 2`)) {
		t.Errorf("the batch's report: %v\n%s", err, data)
	}
}
