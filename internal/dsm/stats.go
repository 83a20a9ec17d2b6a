package dsm

import "reflect"

// Stats counts DSM protocol events. All counters are cumulative for the
// lifetime of the cluster; use Snapshot and Sub to measure windows
// (for example, the cost attributable to one adaptation). Byte and
// message totals live on the network fabric; these counters track
// protocol objects, matching the columns of Table 1. This is the one
// list of counters: StatsSnapshot is this struct by value and Sub walks
// its fields, so a new counter is declared here and nowhere else.
type Stats struct {
	PageFetches  int64 // full 4 KB page transfers
	PageBytes    int64 // payload bytes of page transfers
	DiffFetches  int64 // diff objects fetched (Table 1 "Diffs")
	DiffBytes    int64 // payload bytes of diff transfers
	DiffsCreated int64 // diffs made at interval close
	TwinsCreated int64 // twins made at first write
	// HomeFlushes/HomeFlushBytes count diffs pushed to page homes at
	// interval close, the HLRC analogue of diff fetches (always zero
	// under Tmk).
	HomeFlushes    int64
	HomeFlushBytes int64
	Barriers       int64
	LockAcquires   int64
	GCs            int64
	ReadFaults     int64 // page-granularity access misses
	WriteFaults    int64 // first writes (twin events)
	HybridStats
}

// HybridStats is the hybrid protocol's adaptation record, always zero
// under Tmk and HLRC; the tags are its names in the bench -json report.
type HybridStats struct {
	// Classification census: how many pages the classifier currently
	// tags with each sharing pattern (a page moves between buckets as
	// its access history evolves; unknown pages are in no bucket).
	PagesSingleWriter     int64 `json:"pages_single_writer"`
	PagesProducerConsumer int64 `json:"pages_producer_consumer"`
	PagesMigratory        int64 `json:"pages_migratory"`
	PagesFalselyShared    int64 `json:"pages_falsely_shared"`
	// HomeMigrations counts hybrid home moves: free flips at a
	// sole-writer close plus priced dominant-writer migrations, whose
	// transferred bytes accumulate in HomeMigrationBytes.
	HomeMigrations     int64 `json:"home_migrations"`
	HomeMigrationBytes int64 `json:"home_migration_bytes"`
	// ElidedTwins/ElidedDiffs count the twin copies and diff objects the
	// hybrid protocol skipped for proven single-writer pages.
	ElidedTwins int64 `json:"elided_twins"`
	ElidedDiffs int64 `json:"elided_diffs"`
}

// StatsSnapshot is a copy of the counters at one instant.
type StatsSnapshot Stats

// Snapshot captures the current counter values.
func (s *Stats) Snapshot() StatsSnapshot { return StatsSnapshot(*s) }

// Sub returns the difference between this snapshot and an earlier one,
// counter by counter.
func (s StatsSnapshot) Sub(earlier StatsSnapshot) StatsSnapshot {
	subCounters(reflect.ValueOf(&s).Elem(), reflect.ValueOf(earlier))
	return s
}

// subCounters subtracts e from d: a counter, or a struct of them.
func subCounters(d, e reflect.Value) {
	if d.Kind() == reflect.Int64 {
		d.SetInt(d.Int() - e.Int())
		return
	}
	for i := 0; i < d.NumField(); i++ {
		subCounters(d.Field(i), e.Field(i))
	}
}

// Stats returns the cluster-wide counters.
func (c *Cluster) Stats() *Stats { return &c.stats }
