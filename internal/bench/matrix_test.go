package bench

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/scenario"
	"nowomp/internal/simtime"
)

// matrixGoldenPath holds the Results array of the four JSON-bearing
// experiments (table1, tasking, hetero, protocols) at scale 0.06,
// captured on the commit before the bench cells moved onto
// scenario.Spec. BENCH_pr10.json pins the same 111 simulated columns at
// scale 1.0, a run nobody repeats; this file pins them where every
// `go test` can. Regenerate with NOWOMP_REGEN_GOLDEN=matrix, and only
// for an intentional cost change.
const matrixGoldenPath = "testdata/matrix-0.06.json"

// matrixRecords runs the four record-bearing experiments of the list
// the way `nowomp-bench -json` does and returns their records in the
// report's on-disk order.
func matrixRecords(t *testing.T) []Record {
	t.Helper()
	opt := Options{Scale: 0.06, Hosts: 10}
	var recs []Record
	for _, e := range Experiments {
		switch e.Name {
		case "table1", "tasking", "hetero", "protocols":
			out, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, out.Records...)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Scenario < recs[j].Scenario })
	return recs
}

// TestMatrixGolden asserts every record of the scale-0.06 matrix —
// scenario key, virtual seconds, fabric bytes and messages, and the
// hybrid coherence object — against the committed capture, exactly.
func TestMatrixGolden(t *testing.T) {
	got := matrixRecords(t)
	if os.Getenv("NOWOMP_REGEN_GOLDEN") == "matrix" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(matrixGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), matrixGoldenPath)
		return
	}
	data, err := os.ReadFile(matrixGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matrix has %d records, golden file %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Scenario != w.Scenario {
			t.Fatalf("record %d is %q, golden file has %q", i, g.Scenario, w.Scenario)
		}
		if g.Seconds != w.Seconds || g.Bytes != w.Bytes || g.Messages != w.Messages {
			t.Errorf("%s diverged from the golden file:\n  got  (%.17g s, %d B, %d msgs)\n  want (%.17g s, %d B, %d msgs)",
				g.Scenario, g.Seconds, g.Bytes, g.Messages, w.Seconds, w.Bytes, w.Messages)
		}
		switch {
		case (g.Coherence == nil) != (w.Coherence == nil):
			t.Errorf("%s: coherence object present %v, golden %v", g.Scenario, g.Coherence != nil, w.Coherence != nil)
		case g.Coherence != nil && *g.Coherence != *w.Coherence:
			t.Errorf("%s: coherence %+v, golden %+v", g.Scenario, *g.Coherence, *w.Coherence)
		}
	}
}

// TestGoldenThroughSpec ties the spec path to the reference path: the
// 54 golden cells, written as scenario.Specs whose schedule, speeds,
// loads and links are the tools' compact strings, must reproduce
// tmkGolden, hlrcGolden and hybridGolden on time, bytes and messages.
// goldenMatrix builds the same cells with omp.New and typed values, so
// this fails the day a sub-spec formatter stops round-tripping a float
// exactly or the two paths diverge.
func TestGoldenThroughSpec(t *testing.T) {
	tables := []struct {
		proto string
		want  []goldenCell
	}{{"tmk", tmkGolden}, {"hlrc", hlrcGolden}, {"hybrid", hybridGolden}}
	for _, tab := range tables {
		var got []goldenCell
		cell := func(name string, s scenario.Spec) float64 {
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", tab.proto, name, err)
			}
			got = append(got, goldenCell{Name: name, Time: res.Seconds, Bytes: res.Bytes, Messages: res.Messages})
			return res.Seconds
		}
		leaveJoin := func(T simtime.Seconds, leave, join float64) string {
			return adapt.FormatSchedule([]adapt.Event{
				{Kind: adapt.KindLeave, Host: 2, At: T * simtime.Seconds(leave)},
				{Kind: adapt.KindJoin, Host: 2, At: T * simtime.Seconds(join)},
			})
		}
		for _, kernel := range []string{"gauss", "jacobi", "fft3d", "nbf", "mergesort", "quadrature"} {
			base := scenario.Spec{Kernel: kernel, Scale: goldenScale, Procs: 4, Hosts: 6, Protocol: tab.proto, Verify: true}
			T := simtime.Seconds(cell(kernel+"/base", base))

			ad := base
			ad.Adaptive, ad.Grace = true, float64(T*0.1)
			ad.Schedule = leaveJoin(T, 0.2, 0.5)
			cell(kernel+"/adapt", ad)

			ht := ad
			ht.Machines, ht.Loads, ht.Links = "2=0.5", "1=1@0", "0-3=lat:4,bw:0.25"
			ht.Schedule = leaveJoin(T, 0.3, 0.6)
			cell(kernel+"/hetero", ht)
		}
		if len(got) != len(tab.want) {
			t.Fatalf("%s: %d cells, golden table %d", tab.proto, len(got), len(tab.want))
		}
		for i, g := range got {
			w := tab.want[i]
			if g.Name != w.Name || g.Time != w.Time || g.Bytes != w.Bytes || g.Messages != w.Messages {
				t.Errorf("%s through scenario.Spec diverged from the golden table:\n  got  %s (%.17g s, %d B, %d msgs)\n  want %s (%.17g s, %d B, %d msgs)",
					tab.proto, g.Name, g.Time, g.Bytes, g.Messages, w.Name, w.Time, w.Bytes, w.Messages)
			}
		}
	}
}
