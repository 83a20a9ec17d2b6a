// Gauss on a shrinking NOW: the introduction's motivating scenario.
// A factorisation starts on eight idle workstations in the evening;
// as owners return one by one, the computation adapts down to four
// processes and still finishes correctly — it is no longer bounded by
// the time any individual workstation stays in the pool.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"nowomp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rt, err := nowomp.New(nowomp.Config{
		Hosts: 8, Procs: 8, Adaptive: true,
		// Direct handoff (the paper's future-work improvement) spreads
		// each leaver's pages over the remaining hosts instead of
		// funnelling them through the master.
		LeaveStrategy: nowomp.LeaveDirectHandoff,
	})
	if err != nil {
		return err
	}

	// Owners return at intervals: per-workstation grace periods model
	// different tolerance for sharing (section 3 notes the grace period
	// can be node-specific).
	for i, ev := range []nowomp.Event{
		{Kind: nowomp.Leave, Host: 7, At: 2.0, Grace: 5},
		{Kind: nowomp.Leave, Host: 6, At: 5.0, Grace: 2},
		{Kind: nowomp.Leave, Host: 5, At: 8.0, Grace: 2},
		{Kind: nowomp.Leave, Host: 4, At: 11.0, Grace: 1},
	} {
		if err := rt.Submit(ev); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}

	cfg := nowomp.DefaultGauss()
	cfg.N = 1024 // scaled down; 1.0 = 3072x3072
	res, err := nowomp.RunGauss(rt, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "gauss %dx%d factorised while the NOW shrank 8 -> %d workstations\n",
		cfg.N, cfg.N, rt.NProcs())
	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			fmt.Fprintf(w, "  t=%5.2fs  owner of host %d returned: %d pages handed off in %.3fs, team -> %v\n",
				float64(ap.When), rec.Event.Host, rec.Transfer.PagesMoved,
				float64(ap.Elapsed), ap.TeamAfter)
		}
	}
	fmt.Fprintf(w, "virtual runtime %.2fs, traffic %.2f MB\n", float64(res.Time), res.MB())
	fmt.Fprintf(w, "checksum %.6g — identical on any team-size trajectory\n", res.Checksum)
	return nil
}
