package simnet

import (
	"testing"
	"testing/quick"

	"nowomp/internal/engine"
	"nowomp/internal/simtime"
)

func TestRecordAndTotals(t *testing.T) {
	f := New(4)
	f.Record(0, 1, 100)
	f.Record(0, 1, 50)
	f.Record(1, 0, 25)
	f.Record(2, 3, 4096)
	c := f.Snapshot()
	if got := c.TotalBytes(); got != 4271 {
		t.Fatalf("TotalBytes = %d, want 4271", got)
	}
	if got := c.TotalMessages(); got != 4 {
		t.Fatalf("TotalMessages = %d, want 4", got)
	}
	if got := c.LinkBytes(0, 1); got != 150 {
		t.Fatalf("LinkBytes(0,1) = %d, want 150", got)
	}
	if got := c.LinkBytes(1, 0); got != 25 {
		t.Fatalf("LinkBytes(1,0) = %d, want 25", got)
	}
}

func TestLoopbackFree(t *testing.T) {
	f := New(2)
	f.Record(1, 1, 1<<20)
	c := f.Snapshot()
	if c.TotalBytes() != 0 || c.TotalMessages() != 0 {
		t.Fatalf("loopback traffic must not be recorded, got %d bytes", c.TotalBytes())
	}
}

func TestMaxLink(t *testing.T) {
	f := New(3)
	f.Record(0, 1, 10)
	f.Record(1, 2, 500)
	f.Record(2, 0, 20)
	s, d, b := f.Snapshot().MaxLink()
	if s != 1 || d != 2 || b != 500 {
		t.Fatalf("MaxLink = %d->%d %d bytes, want 1->2 500", s, d, b)
	}
}

func TestMaxLinkEmpty(t *testing.T) {
	_, _, b := New(2).Snapshot().MaxLink()
	if b != 0 {
		t.Fatalf("empty fabric MaxLink bytes = %d, want 0", b)
	}
}

func TestWindowSub(t *testing.T) {
	f := New(2)
	f.Record(0, 1, 100)
	before := f.Snapshot()
	f.Record(0, 1, 300)
	f.Record(1, 0, 7)
	window := f.Snapshot().Sub(before)
	if got := window.LinkBytes(0, 1); got != 300 {
		t.Fatalf("window LinkBytes(0,1) = %d, want 300", got)
	}
	if got := window.TotalMessages(); got != 2 {
		t.Fatalf("window messages = %d, want 2", got)
	}
}

func TestMachineBytes(t *testing.T) {
	f := New(3)
	f.Record(0, 1, 10)
	f.Record(2, 1, 30)
	f.Record(1, 0, 5)
	in, out := f.Snapshot().MachineBytes(1)
	if in != 40 || out != 5 {
		t.Fatalf("MachineBytes(1) = in %d out %d, want 40, 5", in, out)
	}
}

// TestRecordingFromEngineProcs pins the contract that lets the counters
// be plain integers: procs of one engine each run on a coroutine of
// their own, interleaved by virtual time, and the engine's switches
// order every Record. Under -race a concurrent increment would be
// reported here.
func TestRecordingFromEngineProcs(t *testing.T) {
	f := New(4)
	e := engine.New()
	var wl engine.WaitList
	const procs, each = 8, 1000
	for w := 0; w < procs; w++ {
		clk := simtime.NewClock(0)
		e.Go("recorder", w, clk, func(p *engine.Proc) {
			src, dst := MachineID(w%4), MachineID((w+1)%4)
			for i := 0; i < each; i++ {
				f.Record(src, dst, 8)
				clk.Advance(simtime.Seconds(w + 1))
				p.ParkOn(&wl, "record", nil)
			}
		})
	}
	e.Run()
	c := f.Snapshot()
	if got := c.TotalBytes(); got != procs*each*8 {
		t.Fatalf("TotalBytes = %d, want %d", got, procs*each*8)
	}
	if got := c.TotalMessages(); got != procs*each {
		t.Fatalf("TotalMessages = %d, want %d", got, procs*each)
	}
}

func TestInvalidMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Record with out-of-range machine must panic")
		}
	}()
	New(2).Record(0, 5, 1)
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) must panic")
		}
	}()
	New(0)
}

// Property: conservation — the sum over per-machine in-flows equals the
// sum over out-flows equals total bytes.
func TestFlowConservation(t *testing.T) {
	f := func(events []uint16) bool {
		fb := New(5)
		for i, e := range events {
			src := MachineID(i % 5)
			dst := MachineID(int(e) % 5)
			fb.Record(src, dst, int(e%1000))
		}
		c := fb.Snapshot()
		var ins, outs int64
		for m := 0; m < 5; m++ {
			in, out := c.MachineBytes(MachineID(m))
			ins += in
			outs += out
		}
		return ins == c.TotalBytes() && outs == c.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
