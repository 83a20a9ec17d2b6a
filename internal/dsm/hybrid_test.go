package dsm

import (
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// Unit tests for the hybrid protocol's adaptive mechanics: the
// classifier census, single-writer elision, diff-window serving, free
// home flips and priced dominant-writer migration. Each drives the
// cluster API directly with hand-built access patterns so the exact
// counter deltas are checkable; end-to-end output equivalence lives in
// the bench golden matrix and the scenfuzz cross-protocol oracle.

// TestHybridSingleWriterElision: a page with one historical writer, no
// remote readers and its writer as home skips twin and diff work
// entirely — and the first remote read reclassifies it and ends the
// elision.
func TestHybridSingleWriterElision(t *testing.T) {
	c, r := protoCluster(t, Hybrid, 2, 2)
	clk0, clk1 := simtime.NewClock(0), simtime.NewClock(0)
	active := []HostID{0, 1}
	barrier := func() {
		c.Barrier(active, []simtime.Seconds{clk0.Now(), clk1.Now()})
	}

	// First write: the page is unclassified, so the write twins as
	// usual; the close proves it single-writer.
	writeBytes(c.Host(0), r.ID, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8}, clk0)
	barrier()
	st := c.Stats().Snapshot()
	if st.PagesSingleWriter != 1 {
		t.Fatalf("census after sole close: %d single-writer pages, want 1", st.PagesSingleWriter)
	}
	if st.ElidedTwins != 0 {
		t.Fatalf("unproven page elided a twin: %+v", st)
	}

	// Second write: proven single-writer, writer is home, no other
	// copy — the twin is elided and the close commits without a diff.
	twinsBefore := st.TwinsCreated
	writeBytes(c.Host(0), r.ID, 8, []byte{9, 10, 11, 12, 13, 14, 15, 16}, clk0)
	barrier()
	st = c.Stats().Snapshot()
	if st.ElidedTwins != 1 || st.ElidedDiffs != 1 {
		t.Fatalf("elision counters = (%d twins, %d diffs), want (1, 1)", st.ElidedTwins, st.ElidedDiffs)
	}
	if st.TwinsCreated != twinsBefore {
		t.Fatalf("elided write still created a twin (%d -> %d)", twinsBefore, st.TwinsCreated)
	}

	// A remote reader sees every committed word — the elided commit
	// lost nothing — and demotes the page to producer-consumer, so the
	// next write twins again.
	got := make([]byte, 16)
	readBytes(c.Host(1), r.ID, 0, got, clk1)
	for i := 0; i < 16; i++ {
		if got[i] != byte(i+1) {
			t.Fatalf("remote read byte %d = %d, want %d", i, got[i], i+1)
		}
	}
	st = c.Stats().Snapshot()
	if st.PagesSingleWriter != 0 || st.PagesProducerConsumer != 1 {
		t.Fatalf("census after remote read: %d single-writer, %d producer-consumer, want 0 and 1",
			st.PagesSingleWriter, st.PagesProducerConsumer)
	}
	writeBytes(c.Host(0), r.ID, 16, []byte{1, 1, 1, 1, 1, 1, 1, 1}, clk0)
	if now := c.Stats().Snapshot(); now.ElidedTwins != 1 {
		t.Fatalf("write after reclassification still elided: %d elided twins", now.ElidedTwins)
	}
	barrier()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridWindowServing: a sparse sole-writer close flips the home to
// the writer for free and retains the diff; a reader whose stale copy
// sits inside the window then pulls just the missing diffs — no
// whole-page transfer.
func TestHybridWindowServing(t *testing.T) {
	c, r := protoCluster(t, Hybrid, 3, 1)
	clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
	active := []HostID{0, 1, 2}
	barrier := func() {
		c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})
	}

	// Everyone reads the page so every host holds a (zero) copy.
	buf := make([]byte, 8)
	for _, id := range active {
		readBytes(c.Host(id), r.ID, 0, buf, clks[id])
	}
	barrier()

	// Host 1 commits a sparse write: the empty window makes the home
	// flip free (wantFlip: no other writer in it), so no flush travels and
	// no migration bytes are charged.
	writeBytes(c.Host(1), r.ID, 0, []byte{42, 0, 0, 0, 0, 0, 0, 0}, clks[1])
	barrier()
	st := c.Stats().Snapshot()
	if st.HomeMigrations != 1 || st.HomeMigrationBytes != 0 {
		t.Fatalf("free flip = (%d migrations, %d bytes), want (1, 0)", st.HomeMigrations, st.HomeMigrationBytes)
	}
	if got := c.PageOwner(r.ID, 0); got != 1 {
		t.Fatalf("home after sole sparse close = %d, want the writer 1", got)
	}

	// Host 2's invalidated copy is inside the window: the fault must be
	// served with the retained diff, not a page transfer.
	before := c.Stats().Snapshot()
	fabBefore := c.Fabric().Snapshot()
	readBytes(c.Host(2), r.ID, 0, buf, clks[2])
	delta := c.Stats().Snapshot().Sub(before)
	if delta.DiffFetches != 1 || delta.PageFetches != 0 {
		t.Fatalf("window fault = (%d diff fetches, %d page fetches), want (1, 0)", delta.DiffFetches, delta.PageFetches)
	}
	if delta.HomeMigrations != 0 {
		t.Fatalf("window fault counted %d home migrations: Sub must reach the embedded hybrid counters", delta.HomeMigrations)
	}
	if moved := c.Fabric().Snapshot().Sub(fabBefore).TotalBytes(); moved >= page.Size {
		t.Fatalf("window fault moved %d bytes, want under a page", moved)
	}
	if buf[0] != 42 {
		t.Fatalf("window-patched read = %d, want 42", buf[0])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridPricedMigration: a falsely-shared page whose closes one
// writer dominates re-homes to that writer with a paid whole-page
// transfer — exactly one page of migration bytes, charged once the
// dominance run reaches its threshold.
func TestHybridPricedMigration(t *testing.T) {
	c, r := protoCluster(t, Hybrid, 3, 2)
	clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
	active := []HostID{0, 1, 2}
	barrier := func() {
		c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})
	}

	// Page 1 is homed at host 1 (round-robin). Hosts 0 and 1 write
	// disjoint words of it every interval: falsely shared, with host 0
	// — the lowest concurrent writer — as the dominant writer.
	off := page.Size
	for round := 0; round < domMigrateRun; round++ {
		writeBytes(c.Host(0), r.ID, off, []byte{byte(round + 1), 0, 0, 0, 0, 0, 0, 0}, clks[0])
		writeBytes(c.Host(1), r.ID, off+8, []byte{byte(round + 101), 0, 0, 0, 0, 0, 0, 0}, clks[1])
		barrier()
	}

	st := c.Stats().Snapshot()
	if st.PagesFalselyShared != 1 {
		t.Fatalf("census: %d falsely-shared pages, want 1", st.PagesFalselyShared)
	}
	if st.HomeMigrations != 1 || st.HomeMigrationBytes != page.Size {
		t.Fatalf("priced migration = (%d migrations, %d bytes), want (1, %d)",
			st.HomeMigrations, st.HomeMigrationBytes, page.Size)
	}
	if got := c.PageOwner(r.ID, 1); got != 0 {
		t.Fatalf("home after dominance run = %d, want the dominant writer 0", got)
	}

	// The migrated home is current: a third host sees both writers'
	// last words.
	got := make([]byte, 16)
	readBytes(c.Host(2), r.ID, off, got, clks[2])
	if got[0] != byte(domMigrateRun) || got[8] != byte(domMigrateRun+100) {
		t.Fatalf("post-migration read = (%d, %d), want (%d, %d)",
			got[0], got[8], domMigrateRun, domMigrateRun+100)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridGCResetsClassifier: a forced collection clears the census
// and the retained windows — post-adaptation, the old sharing history
// describes a partition layout that no longer exists.
func TestHybridGCResetsClassifier(t *testing.T) {
	c, r := protoCluster(t, Hybrid, 3, 3)
	clks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0), simtime.NewClock(0)}
	active := []HostID{0, 1, 2}

	for i, id := range active {
		writeBytes(c.Host(id), r.ID, i*page.Size, []byte{byte(i + 1), 2, 3, 4, 5, 6, 7, 8}, clks[i])
	}
	c.Barrier(active, []simtime.Seconds{clks[0].Now(), clks[1].Now(), clks[2].Now()})
	st := c.Stats().Snapshot()
	if st.PagesSingleWriter+st.PagesProducerConsumer+st.PagesMigratory+st.PagesFalselyShared == 0 {
		t.Fatal("no page classified before the collection")
	}
	if c.proto.storage() == 0 {
		t.Fatal("no retained window bytes before the collection")
	}

	c.ForceGC(active)
	st = c.Stats().Snapshot()
	if n := st.PagesSingleWriter + st.PagesProducerConsumer + st.PagesMigratory + st.PagesFalselyShared; n != 0 {
		t.Fatalf("census still counts %d pages after the collection", n)
	}
	if got := c.proto.storage(); got != 0 {
		t.Fatalf("retained windows hold %d bytes after the collection", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
