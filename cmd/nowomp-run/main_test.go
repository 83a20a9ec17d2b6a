package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell does: a bad spec is a
// one-line error on stderr and a non-zero status, never a panic, and a
// good one prints the measurement table, the adaptation log and the
// verification verdict.
func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		status int
		stdout []string // substrings stdout must contain
		stderr string   // substring the one stderr line must contain ("" = stderr empty)
	}{
		{"unknown app", []string{"-app", "fortran"}, 1, nil, `unknown kernel "fortran"`},
		{"malformed schedule", []string{"-schedule", "soon"}, 1, nil, `event "soon": want TIME:KIND:HOST`},
		{"malformed machines", []string{"-machines", "99=2"}, 1, nil, `machine "99" not in [0,10)`},
		{"pool below the team", []string{"-procs", "8", "-hosts", "4"}, 1, nil, "hosts 4 must cover the team of 8"},
		{"schedule on the non-adaptive variant", []string{"-adaptive=false", "-schedule", "1:leave:3"}, 1, nil, "requires adaptive"},
		{"unknown flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
		// An explicit zero is not the default: Normalize would read it
		// as one, so the flag check refuses it first.
		{"zero procs", []string{"-app", "gauss", "-procs", "0"}, 1, nil, "-procs 0: want a positive value"},
		{"zero hosts", []string{"-hosts", "0"}, 1, nil, "-hosts 0: want a positive value"},
		{"zero scale", []string{"-scale", "0"}, 1, nil, "-scale 0: want a positive value"},
		{"zero grace", []string{"-grace", "0"}, 1, nil, "-grace 0: want a positive value"},
		{"adaptive jacobi", []string{"-app", "jacobi", "-scale", "0.04", "-schedule", "0.02:leave:7:grace=0.01,0.05:join:7"}, 0,
			[]string{"jacobi (scale 0.04)", "8 initial, 7 final", "1 scheduled events never matured",
				"adaptations:", "[0 1 2 3 4 5 6]", "verified: result matches the sequential reference"}, ""},
		{"policy-derived events", []string{"-app", "jacobi", "-scale", "0.04", "-procs", "4", "-load", "3=4@0.01,0@0.05",
			"-policy", "dwell=0.005,low=0.5,high=2", "-protocol", "hlrc"}, 0,
			[]string{"policy high=2,low=0.5,dwell=0.005 derived 2 events: 0.015:leave:3,0.055:join:3", "protocol         hlrc", "verified:"}, ""},
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
}
