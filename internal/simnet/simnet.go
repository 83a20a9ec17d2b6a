// Package simnet models the switched full-duplex 100 Mbps Ethernet of
// the paper's experimental environment (section 5.1). Because the
// switch isolates links, the network performance of individual links is
// independent; the paper's key micro-result is that adaptation cost is
// proportional to the maximum traffic on any single link. The fabric
// therefore tracks bytes and messages per directed link and can answer
// bottleneck queries over arbitrary measurement windows.
package simnet

import (
	"fmt"
	"slices"
)

// MachineID identifies a physical workstation on the fabric. Logical
// processes bind to machines; after an urgent-leave migration two
// processes may share one machine (and hence one pair of link
// directions) until the next adaptation point.
type MachineID int

// Fabric is a switched network of n machines. A fabric belongs to one
// run, and its per-link byte/message counters are plain integers: the
// engine runs one process of a run at a time, and every switch between
// them is a coroutine switch (a happens-before edge), so Record — called
// on every protocol message — never meets a concurrent reader or
// writer. Runs that execute concurrently (farm workers, the bench
// pool) each own their fabric.
//
// Each directed link also carries optional latency/bandwidth scale
// factors over the baseline cost model (1.0 = the paper's switched
// 100 Mbps Ethernet). Scales are configured before the run starts and
// read-only afterwards; the cost layer (internal/machine) consults
// them when pricing transfers.
type Fabric struct {
	n     int
	bytes []int64 // [from*n+to] payload bytes, from != to
	msgs  []int64

	// latScale/bwScale are per-directed-link multipliers on the
	// baseline one-way latency and bandwidth; nil means all 1.0.
	latScale []float64
	bwScale  []float64
}

// New returns a fabric connecting n machines. n must be positive.
func New(n int) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: invalid machine count %d", n))
	}
	return &Fabric{n: n, bytes: make([]int64, n*n), msgs: make([]int64, n*n)}
}

// Machines returns the number of machines on the fabric.
func (f *Fabric) Machines() int { return f.n }

// Record accounts one message of the given payload size on the directed
// link from src to dst. Loopback traffic (src == dst) is free and not
// recorded, matching a process talking to a co-located process after
// migration.
func (f *Fabric) Record(src, dst MachineID, payload int) {
	if src == dst {
		return
	}
	f.check(src)
	f.check(dst)
	i := int(src)*f.n + int(dst)
	f.bytes[i] += int64(payload)
	f.msgs[i]++
}

// SetLinkScale overrides one directed link's latency and bandwidth
// scale factors (1.0 = baseline). Factors must be positive. Configure
// links before the run: Record and the cost layer read them without
// synchronisation.
func (f *Fabric) SetLinkScale(src, dst MachineID, lat, bw float64) {
	f.check(src)
	f.check(dst)
	if src == dst {
		panic(fmt.Sprintf("simnet: machine %d has no link to itself", src))
	}
	if lat <= 0 || bw <= 0 {
		panic(fmt.Sprintf("simnet: link %d->%d scales (lat %g, bw %g) must be positive", src, dst, lat, bw))
	}
	if f.latScale == nil {
		f.latScale = make([]float64, f.n*f.n)
		f.bwScale = make([]float64, f.n*f.n)
		for i := range f.latScale {
			f.latScale[i] = 1
			f.bwScale[i] = 1
		}
	}
	i := int(src)*f.n + int(dst)
	f.latScale[i] = lat
	f.bwScale[i] = bw
}

// SetDuplexScale overrides both directions of a full-duplex link pair
// with the same factors.
func (f *Fabric) SetDuplexScale(a, b MachineID, lat, bw float64) {
	f.SetLinkScale(a, b, lat, bw)
	f.SetLinkScale(b, a, lat, bw)
}

// LatencyScale returns the latency multiplier of the directed link
// src -> dst (1.0 when unconfigured). Loopback is 1.0 by convention
// (loopback transfers are free and never priced).
func (f *Fabric) LatencyScale(src, dst MachineID) float64 {
	if f.latScale == nil || src == dst {
		return 1
	}
	f.check(src)
	f.check(dst)
	return f.latScale[int(src)*f.n+int(dst)]
}

// BandwidthScale returns the bandwidth multiplier of the directed link
// src -> dst (1.0 when unconfigured).
func (f *Fabric) BandwidthScale(src, dst MachineID) float64 {
	if f.bwScale == nil || src == dst {
		return 1
	}
	f.check(src)
	f.check(dst)
	return f.bwScale[int(src)*f.n+int(dst)]
}

func (f *Fabric) check(m MachineID) {
	if m < 0 || int(m) >= f.n {
		panic(fmt.Sprintf("simnet: machine %d out of range [0,%d)", m, f.n))
	}
}

// Counters is a snapshot of the fabric's per-link accounting.
type Counters struct {
	n     int
	bytes []int64
	msgs  []int64
}

// Snapshot captures the current counters.
func (f *Fabric) Snapshot() Counters {
	return Counters{n: f.n, bytes: slices.Clone(f.bytes), msgs: slices.Clone(f.msgs)}
}

// Sub returns the traffic accumulated between an earlier snapshot and
// this one: the measurement-window primitive used by the adaptation
// micro-analysis.
func (c Counters) Sub(earlier Counters) Counters {
	if c.n != earlier.n {
		panic("simnet: snapshots from different fabrics")
	}
	d := Counters{n: c.n, bytes: make([]int64, len(c.bytes)), msgs: make([]int64, len(c.msgs))}
	for i := range c.bytes {
		d.bytes[i] = c.bytes[i] - earlier.bytes[i]
		d.msgs[i] = c.msgs[i] - earlier.msgs[i]
	}
	return d
}

// TotalBytes returns the sum of payload bytes over all links.
func (c Counters) TotalBytes() int64 {
	var t int64
	for _, b := range c.bytes {
		t += b
	}
	return t
}

// TotalMessages returns the sum of messages over all links.
func (c Counters) TotalMessages() int64 {
	var t int64
	for _, m := range c.msgs {
		t += m
	}
	return t
}

// LinkBytes returns the payload bytes recorded on the directed link
// src -> dst.
func (c Counters) LinkBytes(src, dst MachineID) int64 {
	if src == dst {
		return 0
	}
	return c.bytes[int(src)*c.n+int(dst)]
}

// MaxLink returns the busiest directed link in the window and its byte
// count: the bottleneck that, per section 5.4, determines the cost of
// an adaptation on a switched network.
func (c Counters) MaxLink() (src, dst MachineID, bytes int64) {
	var best int64 = -1
	for s := 0; s < c.n; s++ {
		for d := 0; d < c.n; d++ {
			if s == d {
				continue
			}
			if b := c.bytes[s*c.n+d]; b > best {
				best, src, dst = b, MachineID(s), MachineID(d)
			}
		}
	}
	if best < 0 {
		best = 0
	}
	return src, dst, best
}

// MachineBytes returns the total bytes entering and leaving machine m:
// the load on its full-duplex link (in, out).
func (c Counters) MachineBytes(m MachineID) (in, out int64) {
	for s := 0; s < c.n; s++ {
		if MachineID(s) == m {
			continue
		}
		in += c.bytes[s*c.n+int(m)]
		out += c.bytes[int(m)*c.n+s]
	}
	return in, out
}
