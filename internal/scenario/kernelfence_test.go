package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelFence pins the encoded Result of nbf and fft3d — simulated
// seconds, bytes, messages, pages, diffs, checksum, team and
// adaptations — under every protocol at 1, 3, 4 and 6 processes, each
// steady, through a join/leave pair and on machines of mixed speeds,
// plus nbf at 6 processes on the scales the benchmark's notes once said
// trip the word-race check, the row kernels' cases listed in
// rowFenceCases, and the tasking kernels' cases listed in
// taskFenceCases. Every case verifies against the sequential reference.
// The golden was captured before each kernel's host-side arithmetic
// was rewritten; a host-time change to any of them must reproduce it
// unedited.
//
// Regenerate with NOWOMP_REGEN_GOLDEN=kernels, and only for an intended
// cost or protocol change.
func TestKernelFence(t *testing.T) {
	got := fenceTranscript(t, Spec.Run)
	path := filepath.Join("testdata", "kernelfence.golden")
	if os.Getenv("NOWOMP_REGEN_GOLDEN") == "kernels" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkFenceGolden(t, path, got)
}

// TestKernelFenceWarm runs the fence's cases one after another in one
// Workspace, so every case after the first draws page buffers that
// other cases wrote, and holds the transcript to the same golden: a
// spec run in a reused workspace encodes the bytes of the same spec run
// fresh — traffic, messages and simulated time, not only the checksum.
func TestKernelFenceWarm(t *testing.T) {
	var ws Workspace
	checkFenceGolden(t, filepath.Join("testdata", "kernelfence.golden"), fenceTranscript(t, ws.RunChecked))
}

// fenceTranscript runs every fence case through run and returns the
// transcript of their encoded Results.
func fenceTranscript(t *testing.T, run func(Spec) (Result, error)) string {
	t.Helper()
	var out strings.Builder
	for _, c := range kernelFenceCases() {
		res, err := run(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Adaptations != c.adaptations {
			t.Fatalf("%s: %d adaptations, want %d", c.name, res.Adaptations, c.adaptations)
		}
		b, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s\n%s", c.name, b)
	}
	return out.String()
}

// checkFenceGolden compares a fence transcript with the golden at path
// and names the first differing case and line.
func checkFenceGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	name := ""
	for i := range gl {
		if strings.HasPrefix(gl[i], "== ") {
			name = gl[i][3:]
		}
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of golden>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s: case %s, first difference at line %d\n got: %s\nwant: %s", path, name, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: transcript is %d lines, golden %d", path, len(gl), len(wl))
}

type fenceCase struct {
	name        string
	spec        Spec
	adaptations int
}

// fenceSpeeds are the mixed machine speeds, machine i at fenceSpeeds[i].
var fenceSpeeds = []string{"1", "0.5", "2", "0.75", "1.5", "0.6", "1.25"}

// kernelFenceCases lists the fence. Each team runs on p+1 hosts, so a
// spare host can join. A join matures 0.75 virtual seconds after it is
// raised (spawn plus connection setup), longer than a full-speed run at
// these scales, so the join/leave cases run on uniformly slow machines:
// the spare joins at t=0 and host 1 (for p=1 the joined spare) leaves
// at t=1, and both must apply.
func kernelFenceCases() []fenceCase {
	var cs []fenceCase
	for _, kernel := range []string{"nbf", "fft3d"} {
		for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
			for _, p := range []int{1, 3, 4, 6} {
				base := Spec{Kernel: kernel, Scale: 0.06, Procs: p, Hosts: p + 1, Protocol: proto, Verify: true}
				name := fmt.Sprintf("%s/%s/%dp", kernel, proto, p)
				cs = append(cs, fenceCase{name: name + "/steady", spec: base})

				adaptive := base
				adaptive.Adaptive = true
				adaptive.Machines = fenceMachines(p+1, func(int) string { return "0.05" })
				adaptive.Schedule = fmt.Sprintf("0:join:%d,1:leave:1", p)
				cs = append(cs, fenceCase{name: name + "/join-leave", spec: adaptive, adaptations: 2})

				mixed := base
				mixed.Machines = fenceMachines(p+1, func(i int) string { return fenceSpeeds[i] })
				cs = append(cs, fenceCase{name: name + "/mixed-speeds", spec: mixed})
			}
		}
	}
	for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
		for _, scale := range []float64{0.065, 0.14, 0.17, 0.22} {
			cs = append(cs, fenceCase{
				name: fmt.Sprintf("nbf/%s/6p/scale-%g", proto, scale),
				spec: Spec{Kernel: "nbf", Scale: scale, Procs: 6, Hosts: 6, Protocol: proto, Verify: true},
			})
		}
	}
	cs = append(cs, rowFenceCases()...)
	cs = append(cs, taskFenceCases()...)
	return cs
}

// rowFenceCases are the row kernels' share of the fence: jacobi and
// gauss under every protocol at 1, 3, 4, 6 and 8 processes, steady,
// through a join/leave pair and on mixed speeds. At scale 0.06 a
// jacobi row is N = 150 floats, 600 bytes, so rows straddle page
// breaks, and a gauss row is N = 512 floats, two rows a page; gauss
// also runs at N = 1024, one row a page.
func rowFenceCases() []fenceCase {
	var cs []fenceCase
	for _, kernel := range []string{"jacobi", "gauss"} {
		for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
			for _, p := range []int{1, 3, 4, 6, 8} {
				base := Spec{Kernel: kernel, Scale: 0.06, Procs: p, Hosts: p + 1, Protocol: proto, Verify: true}
				name := fmt.Sprintf("%s/%s/%dp", kernel, proto, p)
				cs = append(cs, fenceCase{name: name + "/steady", spec: base})

				adaptive := base
				adaptive.Adaptive = true
				adaptive.Machines = fenceMachines(p+1, func(int) string { return "0.05" })
				adaptive.Schedule = fmt.Sprintf("0:join:%d,1:leave:1", p)
				cs = append(cs, fenceCase{name: name + "/join-leave", spec: adaptive, adaptations: 2})

				mixed := base
				mixed.Machines = fenceMachines(p+1, func(i int) string { return fenceSpeeds[i%len(fenceSpeeds)] })
				cs = append(cs, fenceCase{name: name + "/mixed-speeds", spec: mixed})
			}
		}
	}
	for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
		for _, p := range []int{3, 8} {
			cs = append(cs, fenceCase{
				name: fmt.Sprintf("gauss/%s/%dp/n-1024", proto, p),
				spec: Spec{Kernel: "gauss", Scale: 1.0 / 3, Procs: p, Hosts: p, Protocol: proto, Verify: true},
			})
		}
	}
	return cs
}

// taskFenceCases are the tasking kernels' share of the fence: mergesort
// and quadrature under every protocol at 1 to 4 processes, steady,
// through a join/leave pair applied at task scheduling points inside
// the tree (on machines slower than the other kernels', since a 1-process
// mergesort at speed 0.05 finishes about when the leave matures), and
// on mixed speeds, plus mergesort at N = 4096 and 2^14,
// the two sizes at which SortConfig.Scaled shrinks the leaf cutoff
// (to 1024 and 4096 keys).
func taskFenceCases() []fenceCase {
	var cs []fenceCase
	for _, kernel := range []string{"mergesort", "quadrature"} {
		for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
			for _, p := range []int{1, 2, 3, 4} {
				base := Spec{Kernel: kernel, Scale: 0.06, Procs: p, Hosts: p + 1, Protocol: proto, Verify: true}
				name := fmt.Sprintf("%s/%s/%dp", kernel, proto, p)
				cs = append(cs, fenceCase{name: name + "/steady", spec: base})

				adaptive := base
				adaptive.Adaptive = true
				adaptive.Machines = fenceMachines(p+1, func(int) string { return "0.02" })
				adaptive.Schedule = fmt.Sprintf("0:join:%d,1:leave:1", p)
				cs = append(cs, fenceCase{name: name + "/join-leave", spec: adaptive, adaptations: 2})

				mixed := base
				mixed.Machines = fenceMachines(p+1, func(i int) string { return fenceSpeeds[i] })
				cs = append(cs, fenceCase{name: name + "/mixed-speeds", spec: mixed})
			}
		}
	}
	for _, proto := range []string{"tmk", "hlrc", "hybrid"} {
		for _, n := range []int{1 << 12, 1 << 14} {
			cs = append(cs, fenceCase{
				name: fmt.Sprintf("mergesort/%s/4p/n-%d", proto, n),
				spec: Spec{Kernel: "mergesort", Scale: float64(n) / (1 << 20), Procs: 4, Hosts: 4, Protocol: proto, Verify: true},
			})
		}
	}
	return cs
}

// fenceMachines renders a ParseSpeeds spec giving machine i of hosts
// the speed speed(i).
func fenceMachines(hosts int, speed func(int) string) string {
	parts := make([]string, hosts)
	for i := range parts {
		parts[i] = fmt.Sprintf("%d=%s", i, speed(i))
	}
	return strings.Join(parts, ",")
}
