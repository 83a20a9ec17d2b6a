package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell does, in order, on one
// checkpoint file: a crashed run exits 1 and leaves the file, -restore
// finishes the job from it, and bad input is a one-line error on stderr
// with a non-zero status, never a panic.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "demo.ckpt")
	cases := []struct {
		name   string
		args   []string
		status int
		stdout []string // substrings stdout must contain
		stderr string   // substring the one stderr line must contain ("" = stderr empty)
	}{
		{"crash", []string{"-file", file, "-crash-at", "12"}, 1,
			[]string{"iteration 12 done, checkpointed to " + file}, "simulated crash (machine reboot) at iteration 12; rerun with -restore"},
		{"restore", []string{"-file", file, "-restore"}, 0,
			[]string{"resuming at iteration 12, team [0 1 2 3]", "completed 20 iterations; result verified (210 per element)"}, ""},
		{"restore under another protocol", []string{"-file", file, "-restore", "-protocol", "hlrc"}, 1, nil, "protocol"},
		{"bad protocol", []string{"-file", file, "-protocol", "mesi"}, 1, nil, `unknown protocol "mesi"`},
		{"no team", []string{"-file", file, "-procs", "0"}, 1, nil, "-procs 0: the team needs at least one process"},
		{"missing checkpoint", []string{"-file", filepath.Join(dir, "absent.ckpt"), "-restore"}, 1, nil, "absent.ckpt"},
		{"unknown flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
		{"run to completion", []string{"-file", file, "-procs", "2", "-protocol", "hybrid"}, 0,
			[]string{"iteration 16 done, checkpointed", "result verified"}, ""},
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
			if _, err := os.Stat(file); err != nil {
				t.Errorf("the checkpoint file must outlive the run: %v", err)
			}
		})
	}
}
