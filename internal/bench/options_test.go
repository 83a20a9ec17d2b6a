package bench

import (
	"reflect"
	"testing"
)

// TestOptionsReachCells pins what the Options docs promise: the
// protocol and heterogeneity strings reach the cells of experiments
// that take no such parameter of their own (table1, tasking), and
// hetero keeps its built-in rows on the baseline with the flags as the
// appended custom shape.
func TestOptionsReachCells(t *testing.T) {
	table1 := func(t *testing.T, o Options) []Table1Row {
		rows, err := Table1(o, []int{4})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if !r.ChecksumOK || !r.TrafficIdentical {
				t.Errorf("%s/%d: checksum ok %v, traffic identical %v", r.App, r.Procs, r.ChecksumOK, r.TrafficIdentical)
			}
		}
		return rows
	}
	tasking := func(t *testing.T, o Options) []TaskingRow {
		rows, err := Tasking(o) // every variant verifies its items or fails
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hetero := func(t *testing.T, o Options) []HeteroRow {
		rows, err := Hetero(o)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	hlrc, slow := tiny(), tiny()
	hlrc.Protocol, slow.Machines = "hlrc", "1=0.5"

	t.Run("table1 under hlrc differs from tmk", func(t *testing.T) {
		tmk, hlrc := table1(t, tiny()), table1(t, hlrc)
		for i := range tmk {
			if tmk[i].Bytes == hlrc[i].Bytes && tmk[i].AdaTime == hlrc[i].AdaTime {
				t.Errorf("%s/%d: hlrc run priced exactly like tmk", tmk[i].App, tmk[i].Procs)
			}
		}
	})
	t.Run("tasking under hlrc differs from tmk", func(t *testing.T) {
		tmk, hlrc := tasking(t, tiny()), tasking(t, hlrc)
		for i := range tmk {
			if tmk[i] == hlrc[i] {
				t.Errorf("%s/%d: hlrc row identical to tmk: %+v", tmk[i].Workload, tmk[i].Procs, tmk[i])
			}
		}
	})
	t.Run("table1 on a half-speed machine is slower", func(t *testing.T) {
		homog, slow := table1(t, tiny()), table1(t, slow)
		for i := range homog {
			if slow[i].AdaTime <= homog[i].AdaTime {
				t.Errorf("%s/%d: %.3fs with machine 1 at half speed, %.3fs without",
					homog[i].App, homog[i].Procs, float64(slow[i].AdaTime), float64(homog[i].AdaTime))
			}
		}
	})
	t.Run("hetero appends the flags as three custom rows", func(t *testing.T) {
		plain, flagged := hetero(t, tiny()), hetero(t, slow)
		if len(flagged) != len(plain)+3 || !reflect.DeepEqual(flagged[:len(plain)], plain) {
			t.Fatalf("built-in rows changed or row count off: %d rows without flags, %d with", len(plain), len(flagged))
		}
		for _, r := range flagged[len(plain):] {
			if r.Scenario != "custom" || !r.Verified {
				t.Errorf("appended row %+v, want a verified custom/* row", r)
			}
		}
	})
	t.Run("a policy without loads is rejected by the spec", func(t *testing.T) {
		if _, err := Hetero(Options{Scale: 0.06, Policy: "high=2,low=0.5"}); err == nil {
			t.Error("hetero accepted a policy with no load traces to watch")
		}
	})
}
