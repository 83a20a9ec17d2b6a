package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell does: a malformed command
// line is status 2, anything that fails afterwards is one line on
// stderr and status 1, never a panic, and a driver run whose every
// response matched its sequential re-run is status 0 with the report
// where -json said.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "farm.json")
	tiny := []string{"-drive", "-jobs", "6", "-horizon", "50ms", "-scale", "0.03", "-workers", "2"}
	cases := []struct {
		name   string
		args   []string
		status int
		stdout []string // substrings stdout must contain
		stderr string   // substring the one stderr line must contain ("" = stderr empty)
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2, nil, "flag provided but not defined"},
		{"malformed duration", []string{"-drive", "-horizon", "soon"}, 2, nil, `invalid value "soon"`},
		{"unknown trace", append([]string{"-trace", "tidal"}, tiny...), 1, nil, `unknown trace "tidal" (want poisson, diurnal or mix)`},
		// An address that cannot be listened on keeps a missed rejection
		// from serving forever.
		{"zero queue", []string{"-addr", "127.0.0.1:99999", "-queue", "0"}, 1, nil, "-queue 0: want at least 1"},
		{"negative inflight", []string{"-addr", "127.0.0.1:99999", "-inflight", "-3"}, 1, nil, "-inflight -3: want at least 1"},
		{"zero jobs", []string{"-drive", "-jobs", "0"}, 1, nil, "-jobs 0: want at least 1"},
		{"zero tenants", []string{"-drive", "-tenants", "0"}, 1, nil, "-tenants 0: want at least 1"},
		{"zero scale", []string{"-drive", "-scale", "0"}, 1, nil, "-scale 0: want a positive value"},
		{"negative scale", []string{"-drive", "-scale", "-0.5"}, 1, nil, "-scale -0.5: want a positive value"},
		{"zero horizon", []string{"-drive", "-horizon", "0s"}, 1, nil, "-horizon 0s: want a positive duration"},
		{"negative horizon", []string{"-drive", "-horizon", "-1s"}, 1, nil, "-horizon -1s: want a positive duration"},
		{"unwritable report", append([]string{"-json", filepath.Join(dir, "no", "such", "dir", "farm.json")}, tiny...), 1,
			[]string{"byte-identity true"}, "no such file or directory"},
		{"address that cannot be listened on", []string{"-addr", "127.0.0.1:99999"}, 1,
			[]string{"nowomp-farm serving on 127.0.0.1:99999"}, "invalid port"},
		{"tiny drive", append([]string{"-json", report}, tiny...), 0,
			[]string{"farm load report (trace mix, seed 1999)", "jobs          6 (", "byte-identity true", "[json report written to " + report + "]"}, ""},
		{"selftest", []string{"-selftest", "-workers", "2"}, 0,
			[]string{"jobs          64 (", "byte-identity true (every response vs a sequential re-run)"}, ""},
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
			case c.status == 1 && (strings.Count(errText, "\n") != 1 || !strings.HasPrefix(errText, "nowomp-farm: ")):
				t.Errorf("error is not one nowomp-farm line: %q", errText)
			}
		})
	}
	if data, err := os.ReadFile(report); err != nil || !bytes.Contains(data, []byte(`"byte_identical": true`)) {
		t.Errorf("the tiny drive's report: %v\n%s", err, data)
	}
}
