package dsm

import "reflect"

// Counter is a cluster-event counter. It keeps the Add/Load method
// shape of atomic.Int64 but increments are plain stores: the engine
// runs exactly one process of a cluster at a time and every process
// switch is a coroutine switch (a happens-before edge), so counters are
// never touched concurrently. Fault-path increments sit right after
// 4 KB twin/fetch copies, where an atomic's store-buffer drain costs
// more than the bookkeeping itself at full scale.
type Counter int64

// Add increments the counter by n.
func (c *Counter) Add(n int64) { *c += Counter(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return int64(*c) }

// Stats counts DSM protocol events. All counters are cumulative for the
// lifetime of the cluster; use Snapshot and Sub to measure windows
// (for example, the cost attributable to one adaptation). Byte and
// message totals live on the network fabric; these counters track
// protocol objects, matching the columns of Table 1. This is the one
// list of counters: StatsSnapshot is this struct by value and Sub walks
// its fields, so a new counter is declared here and nowhere else.
type Stats struct {
	PageFetches  Counter // full 4 KB page transfers
	PageBytes    Counter // payload bytes of page transfers
	DiffFetches  Counter // diff objects fetched (Table 1 "Diffs")
	DiffBytes    Counter // payload bytes of diff transfers
	DiffsCreated Counter // diffs made at interval close
	TwinsCreated Counter // twins made at first write
	// HomeFlushes/HomeFlushBytes count diffs pushed to page homes at
	// interval close, the HLRC analogue of diff fetches (always zero
	// under Tmk).
	HomeFlushes    Counter
	HomeFlushBytes Counter
	Barriers       Counter
	LockAcquires   Counter
	GCs            Counter
	ReadFaults     Counter // page-granularity access misses
	WriteFaults    Counter // first writes (twin events)
	HybridStats
}

// HybridStats is the hybrid protocol's adaptation record, always zero
// under Tmk and HLRC; the tags are its names in the bench -json report.
type HybridStats struct {
	// Classification census: how many pages the classifier currently
	// tags with each sharing pattern (a page moves between buckets as
	// its access history evolves; unknown pages are in no bucket).
	PagesSingleWriter     Counter `json:"pages_single_writer"`
	PagesProducerConsumer Counter `json:"pages_producer_consumer"`
	PagesMigratory        Counter `json:"pages_migratory"`
	PagesFalselyShared    Counter `json:"pages_falsely_shared"`
	// HomeMigrations counts hybrid home moves: free flips at a
	// sole-writer close plus priced dominant-writer migrations, whose
	// transferred bytes accumulate in HomeMigrationBytes.
	HomeMigrations     Counter `json:"home_migrations"`
	HomeMigrationBytes Counter `json:"home_migration_bytes"`
	// ElidedTwins/ElidedDiffs count the twin copies and diff objects the
	// hybrid protocol skipped for proven single-writer pages.
	ElidedTwins Counter `json:"elided_twins"`
	ElidedDiffs Counter `json:"elided_diffs"`
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
