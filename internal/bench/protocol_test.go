package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/omp"
)

// TestProtocolsMatrix runs the full protocol matrix at a small scale.
// Protocols() itself enforces the byte contracts (HLRC beats Tmk on
// the migratory kernel in every scenario; hybrid never loses to the
// better parent on its target patterns and stays within 5% everywhere
// else) and verifies every kernel result; here we additionally check
// the matrix shape, the mechanical signatures, and that the hybrid
// adaptation machinery actually engaged.
func TestProtocolsMatrix(t *testing.T) {
	rows, err := Protocols(Options{Scale: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]int{}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%s/%s/%s/%s not verified", r.Kernel, r.Scenario, r.Schedule, r.Protocol)
		}
		kernels[r.Kernel]++
		// Mechanical signature: Tmk never pushes to homes, HLRC never
		// fetches diffs, and neither parent classifies or adapts.
		if r.Protocol == "tmk" && r.Flushes != 0 {
			t.Errorf("%s/%s/%s: tmk recorded %d home flushes", r.Kernel, r.Scenario, r.Schedule, r.Flushes)
		}
		if r.Protocol == "hlrc" && r.Diffs != 0 {
			t.Errorf("%s/%s/%s: hlrc recorded %d diff fetches", r.Kernel, r.Scenario, r.Schedule, r.Diffs)
		}
		if r.Protocol != "hybrid" && r.Coherence != (dsm.HybridStats{}) {
			t.Errorf("%s/%s/%s/%s: parent protocol recorded coherence stats %+v",
				r.Kernel, r.Scenario, r.Schedule, r.Protocol, r.Coherence)
		}
		// Hybrid adaptation signatures per kernel: the classifier must
		// tag the pattern each kernel embodies, and falseshare must pay
		// for at least one dominant-writer migration.
		if r.Protocol == "hybrid" {
			co := r.Coherence
			switch r.Kernel {
			case "prodcons":
				if co.PagesProducerConsumer == 0 {
					t.Errorf("prodcons/%s: hybrid classified no producer-consumer pages: %+v", r.Scenario, co)
				}
			case "falseshare":
				if co.PagesFalselyShared == 0 || co.HomeMigrationBytes == 0 {
					t.Errorf("falseshare/%s: hybrid census %+v, want falsely-shared pages and paid migrations", r.Scenario, co)
				}
			case "migratory":
				if co.PagesMigratory == 0 {
					t.Errorf("migratory/%s: hybrid classified no migratory pages: %+v", r.Scenario, co)
				}
			}
		}
	}
	// 4 scenarios x 3 schedules x 3 protocols + leave-join static triple.
	if want := 4*3*3 + 3; kernels["loop"] != want {
		t.Errorf("loop cells = %d, want %d", kernels["loop"], want)
	}
	// 4 non-adaptation scenarios x 3 protocols each.
	for _, k := range []string{"migratory", "prodcons", "falseshare"} {
		if want := 4 * 3; kernels[k] != want {
			t.Errorf("%s cells = %d, want %d", k, kernels[k], want)
		}
	}

	// The identical static loop must price identically across
	// protocols' shared machinery only when traffic patterns agree —
	// not asserted. But the same protocol under the same scenario must
	// be deterministic: re-run one cell and compare bit for bit.
	again, _, err := loopCell(Options{Scale: 0.06}.withDefaults(), nowShape{name: "homog"}, omp.Static, "tmk")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Kernel == "loop" && r.Scenario == "homog" && r.Schedule == "static" && r.Protocol == "tmk" {
			if r.Time != again.Time || r.Bytes != again.Bytes || r.Messages != again.Messages {
				t.Errorf("static/homog/tmk not deterministic: (%v,%d,%d) vs (%v,%d,%d)",
					r.Time, r.Bytes, r.Messages, again.Time, again.Bytes, again.Messages)
			}
		}
	}
}

// TestReportRendersSortedJSON checks the -json report writer: records
// come back sorted by scenario with the schema stamped.
func TestReportRendersSortedJSON(t *testing.T) {
	rep := NewReport(Options{Scale: 0.06})
	rep.Results = append(rep.Results,
		Record{Scenario: "b/later", Seconds: 2, Bytes: 20, Messages: 2},
		Record{Scenario: "a/earlier", Seconds: 1, Bytes: 10, Messages: 1})
	path := t.TempDir() + "/bench.json"
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"schema": 4`) {
		t.Errorf("report missing schema stamp:\n%s", data)
	}
	// Run metadata (since schema 2): the worker-pool size, resolved from
	// the zero value to GOMAXPROCS, and the wall clock.
	if !strings.Contains(data, fmt.Sprintf(`"parallel": %d`, runtime.GOMAXPROCS(0))) || !strings.Contains(data, `"wall_seconds"`) {
		t.Errorf("report missing schema-2 run metadata:\n%s", data)
	}
	if strings.Index(data, "a/earlier") > strings.Index(data, "b/later") {
		t.Errorf("records not sorted by scenario:\n%s", data)
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}
