package simtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
}

func TestPageFetchMatchesPaper(t *testing.T) {
	m := Default()
	got := float64(m.PageFetch(4096))
	if math.Abs(got-1308e-6) > 1e-9 {
		t.Fatalf("full page fetch = %g s, want 1308 us", got)
	}
}

func TestDiffFetchBounds(t *testing.T) {
	m := Default()
	lo := float64(m.DiffFetch(8))
	hi := float64(m.DiffFetch(4096))
	if lo < 313e-6 || lo > 500e-6 {
		t.Errorf("minimal diff fetch = %g s, want near 313 us", lo)
	}
	if math.Abs(hi-1544e-6) > 1e-9 {
		t.Errorf("full-page diff fetch = %g s, want 1544 us", hi)
	}
	if hi <= lo {
		t.Errorf("diff cost must grow with size: %g <= %g", hi, lo)
	}
}

func TestLockCostRange(t *testing.T) {
	m := Default()
	if got := float64(m.LockBase); math.Abs(got-178e-6) > 1e-12 {
		t.Errorf("uncontended lock = %g, want 178 us", got)
	}
	if got := float64(m.LockBase + m.LockForward); math.Abs(got-272e-6) > 1e-12 {
		t.Errorf("forwarded lock = %g, want 272 us", got)
	}
}

func TestMigrationRate(t *testing.T) {
	m := Default()
	img := 40 << 20 // 40 MB image
	got := float64(m.Migration(img))
	want := 0.7 + float64(img)/8.1e6
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("migration(40MB) = %g, want %g", got, want)
	}
}

func TestForkAndBarrierScale(t *testing.T) {
	m := Default()
	if m.Fork(1) != 0 {
		t.Errorf("fork of a 1-process team should be free")
	}
	if m.Barrier(1) != 0 {
		t.Errorf("barrier of a 1-process team should be free")
	}
	if m.Fork(8) <= m.Fork(2) {
		t.Errorf("fork cost must grow with team size")
	}
	if m.Barrier(8) <= m.Barrier(2) {
		t.Errorf("barrier cost must grow with team size")
	}
}

func TestClockMonotonic(t *testing.T) {
	c := NewClock(0)
	c.Advance(1.5)
	c.Advance(-3) // ignored
	if c.Now() != 1.5 {
		t.Fatalf("clock = %v, want 1.5", c.Now())
	}
	c.AdvanceTo(1.0) // in the past, ignored
	if c.Now() != 1.5 {
		t.Fatalf("AdvanceTo moved clock backwards to %v", c.Now())
	}
	c.AdvanceTo(2.0)
	if c.Now() != 2.0 {
		t.Fatalf("AdvanceTo = %v, want 2.0", c.Now())
	}
}

func TestAdvancePropertyMonotone(t *testing.T) {
	f := func(steps []float64) bool {
		c := NewClock(0)
		prev := c.Now()
		for _, s := range steps {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			c.Advance(Seconds(s))
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireLinear(t *testing.T) {
	m := Default()
	f := func(a, b uint16) bool {
		wa, wb := m.Wire(int(a)), m.Wire(int(b))
		sum := m.Wire(int(a) + int(b))
		return math.Abs(float64(sum-(wa+wb))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsStringAdaptive(t *testing.T) {
	cases := []struct {
		s    Seconds
		want string
	}{
		{0, "0.000s"},
		{1.5, "1.500s"},
		{0.001, "0.001s"},
		{Micros(126), "126µs"},
		{Micros(63), "63µs"},
		{Micros(0.5), "0.5µs"},
		{Micros(-126), "-126µs"},
		{-2, "-2.000s"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("Seconds(%g).String() = %q, want %q", float64(c.s), got, c.want)
		}
	}
}
