package dsm

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// TestRandomBarrierProgramsMatchReference runs randomly generated
// barrier-synchronised programs against a flat reference array. Each
// interval assigns every host a disjoint set of word indices to write
// (race-free by construction, but with heavy page-level false sharing),
// then after the barrier every host reads a random sample and must see
// the reference values.
func TestRandomBarrierProgramsMatchReference(t *testing.T) {
	const (
		hosts     = 4
		words     = 6 * page.Words // 6 pages
		intervals = 8
		trials    = 12
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		c, clocks := newTestCluster(t, hosts, hosts)
		r, err := c.Alloc("mem", words*8)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]uint64, words)

		for iv := 0; iv < intervals; iv++ {
			// Disjoint writes: shuffle word indices, give each host a
			// random-length slice of the permutation.
			perm := rng.Perm(words)
			cut := 0
			for h := 0; h < hosts; h++ {
				n := rng.Intn(words / hosts)
				for _, w := range perm[cut : cut+n] {
					v := rng.Uint64()
					ref[w] = v
					putU64(c, HostID(h), r.ID, w*8, v, clocks[h])
				}
				cut += n
			}
			barrier(c, clocks)
			// Occasional GC, like the real system under diff pressure.
			if iv%3 == 2 {
				c.ForceGC(c.ActiveHosts())
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d interval %d: %v", trial, iv, err)
			}
			// Every host samples random words.
			for h := 0; h < hosts; h++ {
				for k := 0; k < 20; k++ {
					w := rng.Intn(words)
					if got := getU64(c, HostID(h), r.ID, w*8, clocks[h]); got != ref[w] {
						t.Fatalf("trial %d interval %d: host %d word %d = %d, want %d",
							trial, iv, h, w, got, ref[w])
					}
				}
			}
		}
	}
}

// TestRandomProgramsWithAdaptation interleaves joins and leaves with
// random disjoint writes and checks that shared memory always matches
// the reference, exercising GC + leave + join state transfer together.
func TestRandomProgramsWithAdaptation(t *testing.T) {
	const (
		pool      = 5
		words     = 4 * page.Words
		intervals = 10
		trials    = 8
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		c, clocks := newTestCluster(t, pool, 3)
		r, err := c.Alloc("mem", words*8)
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]uint64, words)

		for iv := 0; iv < intervals; iv++ {
			active := c.ActiveHosts()
			perm := rng.Perm(words)
			cut := 0
			for _, id := range active {
				n := rng.Intn(words/len(active) + 1)
				for _, w := range perm[cut : cut+n] {
					v := rng.Uint64()
					ref[w] = v
					putU64(c, id, r.ID, w*8, v, clocks[id])
				}
				cut += n
			}
			barrier(c, clocks)

			// Adapt at this point with probability 1/2.
			switch rng.Intn(4) {
			case 0: // leave a random non-master host if possible
				if len(active) > 2 {
					leaver := active[1+rng.Intn(len(active)-1)]
					c.ForceGC(active)
					if _, err := c.NormalLeave(leaver, LeaveViaMaster); err != nil {
						t.Fatalf("leave: %v", err)
					}
				}
			case 1: // join an inactive host if possible
				for id := HostID(0); int(id) < pool; id++ {
					if !c.Host(id).Active() {
						c.ForceGC(c.ActiveHosts())
						if _, err := c.Join(id); err != nil {
							t.Fatalf("join: %v", err)
						}
						break
					}
				}
			}

			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("trial %d interval %d: %v", trial, iv, err)
			}
			for _, id := range c.ActiveHosts() {
				for k := 0; k < 15; k++ {
					w := rng.Intn(words)
					if got := getU64(c, id, r.ID, w*8, clocks[id]); got != ref[w] {
						t.Fatalf("trial %d interval %d: host %d word %d = %d, want %d",
							trial, iv, id, w, got, ref[w])
					}
				}
			}
		}
	}
}

// TestBulkTransferConsistency writes a large buffer from one host and
// streams it out from another, crossing many pages.
func TestBulkTransferConsistency(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	const n = 10*page.Size + 136
	r, err := c.Alloc("buf", n)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, n)
	rng := rand.New(rand.NewSource(42))
	rng.Read(src)
	writeBytes(c.Host(0), r.ID, 0, src, clocks[0])
	barrier(c, clocks)
	dst := make([]byte, n)
	readBytes(c.Host(1), r.ID, 0, dst, clocks[1])
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}

// TestDeterministicTraffic runs the same program twice and requires
// identical protocol counters, traffic and virtual times: the
// reproducibility contract of the simulation.
func TestDeterministicTraffic(t *testing.T) {
	run := func() (StatsSnapshot, int64, simtime.Seconds) {
		c, clocks := newTestCluster(t, 4, 4)
		r, _ := c.Alloc("a", 8*page.Size)
		for iv := 0; iv < 6; iv++ {
			for h := 0; h < 4; h++ {
				off := ((h*2+iv)%8)*page.Size + (h%3)*8
				putU64(c, HostID(h), r.ID, off, uint64(iv*100+h), clocks[h])
			}
			barrier(c, clocks)
			for h := 0; h < 4; h++ {
				getU64(c, HostID(h), r.ID, ((h+iv)%8)*page.Size, clocks[h])
			}
		}
		return c.Stats().Snapshot(), c.Fabric().Snapshot().TotalBytes(), clocks[0].Now()
	}
	s1, b1, t1 := run()
	s2, b2, t2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if b1 != b2 {
		t.Fatalf("traffic differs: %d vs %d", b1, b2)
	}
	if t1 != t2 {
		t.Fatalf("virtual time differs: %v vs %v", t1, t2)
	}
}

// TestWordEncoding sanity-checks the little-endian helpers used
// throughout the tests.
func TestWordEncoding(t *testing.T) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0x1122334455667788)
	if got := binary.LittleEndian.Uint64(b[:]); got != 0x1122334455667788 {
		t.Fatal("endianness helpers broken")
	}
}
