package machine

import (
	"testing"

	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// costCase pairs one pricing method of Costs with the
// simtime.CostModel expression it must equal bit for bit wherever the
// factors it reads are 1.0.
type costCase struct {
	name string
	got  func(k *Costs) simtime.Seconds
	want simtime.Seconds
}

// baselineCosts lists every pricing method of Costs. m names three
// machines (requester or master, peer or manager, lock holder); the
// team of Barrier and Fork is those three.
func baselineCosts(base simtime.CostModel, m [3]simnet.MachineID, bytes int) []costCase {
	team := func(i int) simnet.MachineID { return m[i] }
	return []costCase{
		{"Compute", func(k *Costs) simtime.Seconds { return k.Compute(m[0], 17, 0.125) }, 0.125},
		{"Latency", func(k *Costs) simtime.Seconds { return k.Latency(m[0], m[1]) }, base.OneWayLatency},
		{"RoundTrip", func(k *Costs) simtime.Seconds { return k.RoundTrip(m[0], m[1]) }, 2 * base.OneWayLatency},
		{"Wire", func(k *Costs) simtime.Seconds { return k.Wire(m[0], m[1], bytes) }, base.Wire(bytes)},
		{"PageFetch", func(k *Costs) simtime.Seconds { return k.PageFetch(m[0], m[1], bytes) }, base.PageFetch(bytes)},
		{"DiffFetch", func(k *Costs) simtime.Seconds { return k.DiffFetch(m[0], m[1], bytes) }, base.DiffFetch(bytes)},
		{"DiffFlush", func(k *Costs) simtime.Seconds { return k.DiffFlush(m[0], m[1], bytes) },
			base.OneWayLatency + base.Wire(bytes) + base.MsgOverhead},
		{"Twin", func(k *Costs) simtime.Seconds { return k.Twin(m[0]) }, base.TwinCost},
		{"DiffCreate", func(k *Costs) simtime.Seconds { return k.DiffCreate(m[0], bytes) },
			base.DiffCreateByteCost * simtime.Seconds(bytes)},
		{"MsgOverhead", func(k *Costs) simtime.Seconds { return k.MsgOverhead(m[0]) }, base.MsgOverhead},
		{"Lock", func(k *Costs) simtime.Seconds { return k.Lock(m[0], m[1], m[2], false) }, base.LockBase},
		{"Lock forwarded", func(k *Costs) simtime.Seconds { return k.Lock(m[0], m[1], m[2], true) },
			base.LockBase + base.LockForward},
		{"Barrier", func(k *Costs) simtime.Seconds { return k.Barrier(m[0], len(m), team) }, base.Barrier(len(m))},
		{"Fork", func(k *Costs) simtime.Seconds { return k.Fork(m[0], len(m), team) }, base.Fork(len(m))},
		{"Migration", func(k *Costs) simtime.Seconds { return k.Migration(m[0], m[1], bytes<<10) }, base.Migration(bytes << 10)},
		{"JoinMap", func(k *Costs) simtime.Seconds { return k.JoinMap(m[0], m[1], bytes) },
			2*base.OneWayLatency + base.Wire(bytes) + base.MsgOverhead},
	}
}

// TestHomogeneousBitIdentity is the cost layer's contract: a factor of
// 1.0 changes no bit. Every Costs method equals the calibrated
// CostModel arithmetic exactly — for a nil model, for an explicit
// all-1.0 model, for a fabric whose link table exists but holds only
// 1.0, and (locality) among the untouched machines of a NOW that is
// heterogeneous elsewhere. It holds because x*1, x/1 and x+x are exact
// in IEEE-754 and each formula keeps the baseline's association order;
// reassociating any one of them turns this test red.
func TestHomogeneousBitIdentity(t *testing.T) {
	base := simtime.Default()
	touched := simnet.New(8)
	touched.SetDuplexScale(0, 1, 1, 1)
	elsewhere := New(8)
	elsewhere.SetSpeed(5, 0.5)
	load, err := NewTrace(Step{At: 0, Load: 2})
	if err != nil {
		t.Fatal(err)
	}
	elsewhere.SetLoad(5, load)
	bent := simnet.New(8)
	bent.SetDuplexScale(0, 1, 4, 0.25)

	all := [][3]simnet.MachineID{{0, 1, 2}, {1, 0, 5}, {3, 4, 2}, {7, 5, 0}, {2, 2, 2}}
	for _, tc := range []struct {
		name     string
		k        *Costs
		machines [][3]simnet.MachineID
	}{
		{"nil model", NewCosts(base, simnet.New(8), nil), all},
		{"unit model", NewCosts(base, simnet.New(8), New(8)), all},
		{"unit link table", NewCosts(base, touched, New(8)), all},
		{"slow machine 5 and bent link 0-1, among 2 3 4", NewCosts(base, bent, elsewhere),
			[][3]simnet.MachineID{{2, 3, 4}, {4, 2, 3}, {3, 3, 4}}},
	} {
		for _, m := range tc.machines {
			for _, bytes := range []int{0, 1, 100, 4096, 65536} {
				for _, c := range baselineCosts(base, m, bytes) {
					if got := c.got(tc.k); got != c.want {
						t.Errorf("%s, machines %v, %d bytes: %s = %v, want the baseline %v exactly",
							tc.name, m, bytes, c.name, got, c.want)
					}
				}
			}
		}
	}
}

func TestLinkScalesBendTransfers(t *testing.T) {
	base := simtime.Default()
	f := simnet.New(4)
	f.SetDuplexScale(0, 1, 4, 0.25)
	k := NewCosts(base, f, nil)
	if got, want := k.Latency(0, 1), 4*base.OneWayLatency; got != want {
		t.Errorf("Latency over slow link = %v, want %v", got, want)
	}
	if got, want := k.Latency(0, 2), base.OneWayLatency; got != want {
		t.Errorf("Latency over default link = %v, want %v", got, want)
	}
	if got := k.Wire(0, 1, 4096); got <= base.Wire(4096)*3.9 {
		t.Errorf("quarter bandwidth wire time %v not ~4x baseline %v", got, base.Wire(4096))
	}
	slow := k.PageFetch(0, 1, 4096)
	fast := k.PageFetch(0, 2, 4096)
	if slow <= fast {
		t.Errorf("page fetch over slow link (%v) must cost more than default (%v)", slow, fast)
	}
	if fast != base.PageFetch(4096) {
		// The default link bends nothing; allow only exactness.
		t.Errorf("default-link fetch %v differs from baseline %v", fast, base.PageFetch(4096))
	}
}

func TestSpeedScalesSoftwareCosts(t *testing.T) {
	base := simtime.Default()
	f := simnet.New(4)
	m := New(4)
	m.SetSpeed(2, 2) // double speed: half the software cost
	k := NewCosts(base, f, m)
	if got, want := k.Twin(2), base.TwinCost/2; got != want {
		t.Errorf("Twin on 2x machine = %v, want %v", got, want)
	}
	if got, want := k.Twin(1), base.TwinCost; got != want {
		t.Errorf("Twin on 1x machine = %v, want %v", got, want)
	}
	if got, want := k.MsgOverhead(2), base.MsgOverhead/2; got != want {
		t.Errorf("MsgOverhead on 2x machine = %v, want %v", got, want)
	}
	if k.DiffCreate(2, 4096) >= k.DiffCreate(1, 4096) {
		t.Error("diff create must be cheaper on the faster machine")
	}
	// Load must NOT affect software costs.
	tr, _ := NewTrace(Step{At: 0, Load: 10})
	m.SetLoad(1, tr)
	k = NewCosts(base, f, m)
	if got, want := k.Twin(1), base.TwinCost; got != want {
		t.Errorf("Twin on loaded 1x machine = %v, want %v (load-independent)", got, want)
	}
}

func TestMigrationLinkBottleneck(t *testing.T) {
	base := simtime.Default()
	f := simnet.New(4)
	// Scale 0->1 bandwidth so the link (12.5 MB/s * 0.1) undercuts the
	// 8.1 MB/s libckpt rate.
	f.SetLinkScale(0, 1, 1, 0.1)
	k := NewCosts(base, f, nil)
	img := 10 << 20
	slow := k.Migration(0, 1, img)
	if slow <= base.Migration(img) {
		t.Errorf("migration over starved link %v must exceed baseline %v", slow, base.Migration(img))
	}
	// A generous link leaves libckpt the bottleneck.
	f2 := simnet.New(4)
	f2.SetLinkScale(0, 1, 1, 10)
	k2 := NewCosts(base, f2, nil)
	if got, want := k2.Migration(0, 1, img), base.Migration(img); got != want {
		t.Errorf("migration over fat link = %v, want libckpt-limited %v", got, want)
	}
}

func TestBarrierAndForkWorstLink(t *testing.T) {
	base := simtime.Default()
	f := simnet.New(4)
	f.SetDuplexScale(0, 3, 5, 1)
	k := NewCosts(base, f, nil)
	member := func(i int) simnet.MachineID { return simnet.MachineID(i) }
	if k.Barrier(0, 4, member) <= base.Barrier(4) {
		t.Error("barrier with one slow member must cost more than baseline")
	}
	if k.Fork(0, 4, member) <= base.Fork(4) {
		t.Error("fork with one slow member must cost more than baseline")
	}
	if got, want := k.Barrier(0, 3, member), base.Barrier(3); got != want {
		t.Errorf("barrier avoiding the slow link = %v, want %v", got, want)
	}
}
