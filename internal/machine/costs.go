package machine

import (
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// Costs prices transfers and local DSM work on a possibly
// heterogeneous NOW: the calibrated simtime.CostModel supplies the
// baseline constants, the Fabric's per-link scales bend latency and
// bandwidth link by link, and the Model's speed factors scale the
// software-side components by the executing machine's CPU.
//
// Every method has one formula. It multiplies or divides the baseline
// constants by the factors in the baseline expression's own association
// order, and x*1, x/1 and x+x are exact in IEEE-754, so wherever the
// factors a charge reads are 1.0 the charge equals the CostModel
// arithmetic bit for bit (TestHomogeneousBitIdentity). Pricing follows
// two conventions:
//
//   - Latency/wire components are priced on the actual directed link a
//     message crosses (requests src -> dst, payloads dst -> src).
//   - Fixed software components (page/diff handling bases, twinning,
//     diff scans, message overhead) scale by 1/speed of the machine
//     that executes them — the requester for fetches, since TreadMarks
//     charges the requester-observed cost.
//
// Background load deliberately does not scale these micro costs; it
// scales compute charges only (see Model.Compute).
type Costs struct {
	base simtime.CostModel
	fab  *simnet.Fabric
	m    *Model
}

// NewCosts builds the cost layer for one cluster. model may be nil
// (homogeneous pool); fab must be the cluster's fabric.
func NewCosts(base simtime.CostModel, fab *simnet.Fabric, model *Model) *Costs {
	return &Costs{
		base: base,
		fab:  fab,
		m:    model,
	}
}

// Base returns the baseline cost model.
func (k *Costs) Base() simtime.CostModel { return k.base }

// Model returns the machine model, possibly nil.
func (k *Costs) Model() *Model { return k.m }

// cpu returns the software-cost multiplier of machine id (1/speed).
func (k *Costs) cpu(id simnet.MachineID) float64 {
	return k.m.CPUScale(id)
}

// Compute returns the elapsed virtual time for `work` baseline seconds
// of user computation started on machine id at instant `start` — the
// entry point Proc.Charge prices through. Unlike the software costs
// below, compute scales by the full slowdown (1+load)/speed,
// integrated over the load trace.
func (k *Costs) Compute(id simnet.MachineID, start, work simtime.Seconds) simtime.Seconds {
	return k.m.Compute(id, start, work)
}

// Latency returns the one-way latency of the directed link src -> dst.
func (k *Costs) Latency(src, dst simnet.MachineID) simtime.Seconds {
	return k.base.OneWayLatency * simtime.Seconds(k.fab.LatencyScale(src, dst))
}

// RoundTrip returns request-plus-reply latency between two machines.
func (k *Costs) RoundTrip(a, b simnet.MachineID) simtime.Seconds {
	return k.Latency(a, b) + k.Latency(b, a)
}

// Wire returns the serialisation time of a payload on the directed
// link src -> dst.
func (k *Costs) Wire(src, dst simnet.MachineID, bytes int) simtime.Seconds {
	return simtime.Seconds(float64(bytes) / (k.base.LinkBandwidth * k.fab.BandwidthScale(src, dst)))
}

// PageFetch returns the requester-observed cost of fetching a full
// page of the given payload size: request req -> owner, payload
// owner -> req, software base scaled by the requester's CPU.
func (k *Costs) PageFetch(req, owner simnet.MachineID, bytes int) simtime.Seconds {
	return k.RoundTrip(req, owner) +
		k.base.PageFetchBase*simtime.Seconds(k.cpu(req)) +
		k.Wire(owner, req, bytes)
}

// DiffFetch returns the requester-observed cost of fetching and
// applying diffs totalling the given payload size from one writer.
// The per-byte create/apply cost scales by the requester's CPU.
func (k *Costs) DiffFetch(req, writer simnet.MachineID, bytes int) simtime.Seconds {
	cpu := simtime.Seconds(k.cpu(req))
	return k.RoundTrip(req, writer) +
		k.base.DiffFetchBase*cpu +
		k.Wire(writer, req, bytes) +
		simtime.Seconds(float64(bytes))*k.base.DiffByteCost*cpu
}

// DiffFlush returns the writer-observed cost of pushing its interval's
// diff for one page to the page's home when the interval closes (the
// HLRC release path): one-way latency and wire time on the writer ->
// home link plus the send overhead on the writer. The home applies the
// diff off the writer's critical path; the apply scan is folded into
// the calibrated page-fetch base the next reader pays.
func (k *Costs) DiffFlush(writer, home simnet.MachineID, bytes int) simtime.Seconds {
	return k.Latency(writer, home) + k.Wire(writer, home, bytes) + k.MsgOverhead(writer)
}

// Twin returns the local cost of twinning one page on machine id.
func (k *Costs) Twin(id simnet.MachineID) simtime.Seconds {
	return k.base.TwinCost * simtime.Seconds(k.cpu(id))
}

// DiffCreate returns the local cost of scanning `bytes` bytes of page
// against twin on machine id when an interval closes.
func (k *Costs) DiffCreate(id simnet.MachineID, bytes int) simtime.Seconds {
	return k.base.DiffCreateByteCost * simtime.Seconds(bytes) * simtime.Seconds(k.cpu(id))
}

// MsgOverhead returns the per-message software overhead executed on
// machine id.
func (k *Costs) MsgOverhead(id simnet.MachineID) simtime.Seconds {
	return k.base.MsgOverhead * simtime.Seconds(k.cpu(id))
}

// rtScale returns the mean latency scale of the duplex pair a<->b,
// used to bend calibrated aggregates that are round trips at heart.
func (k *Costs) rtScale(a, b simnet.MachineID) simtime.Seconds {
	return simtime.Seconds((k.fab.LatencyScale(a, b) + k.fab.LatencyScale(b, a)) / 2)
}

// Lock returns the acquire cost of a Tmk lock for a requester on
// machine req, with the manager on manager and — when the request is
// forwarded — the current holder on holder. The calibrated LockBase
// (one round trip to the manager) bends with the req<->manager pair;
// the LockForward increment (manager -> holder -> req) bends with the
// mean of those two hops.
func (k *Costs) Lock(req, manager, holder simnet.MachineID, forwarded bool) simtime.Seconds {
	cost := k.base.LockBase * k.rtScale(req, manager)
	if forwarded {
		fwd := simtime.Seconds((k.fab.LatencyScale(manager, holder) + k.fab.LatencyScale(holder, req)) / 2)
		cost += k.base.LockForward * fwd
	}
	return cost
}

// Barrier returns the synchronisation cost of a barrier across n
// processes, the i-th on machine member(i), with the manager on master,
// excluding the wait for the slowest arrival. The calibrated base (two
// round trips) bends with the worst master<->member pair. The team is
// an accessor, not a slice, so the caller gathers nothing per barrier.
func (k *Costs) Barrier(master simnet.MachineID, n int, member func(i int) simnet.MachineID) simtime.Seconds {
	if n <= 1 {
		return 0
	}
	worst := simtime.Seconds(1)
	for i := 0; i < n; i++ {
		if s := k.rtScale(master, member(i)); s > worst {
			worst = s
		}
	}
	return k.base.BarrierBase*worst + simtime.Seconds(n)*k.base.BarrierPerProc
}

// Fork returns the master's cost of broadcasting Tmk_fork to a team of
// n processes, the i-th on machine member(i): the latency of the
// slowest master -> slave link plus per-slave send overhead on the
// master.
func (k *Costs) Fork(master simnet.MachineID, n int, member func(i int) simnet.MachineID) simtime.Seconds {
	if n <= 1 {
		return 0
	}
	worst := k.base.OneWayLatency
	for i := 0; i < n; i++ {
		if l := k.Latency(master, member(i)); l > worst {
			worst = l
		}
	}
	return worst + simtime.Seconds(n-1)*k.base.MsgOverhead*simtime.Seconds(k.cpu(master))
}

// Migration returns the cost of moving a process image from src to
// dst: spawn, then image transfer at the measured libckpt rate — or at
// the link's rate where an override makes the wire the bottleneck.
func (k *Costs) Migration(src, dst simnet.MachineID, imageBytes int) simtime.Seconds {
	rate := k.base.MigrationBandwidth
	if link := k.base.LinkBandwidth * k.fab.BandwidthScale(src, dst); link < rate {
		rate = link
	}
	return k.base.SpawnTime + simtime.Seconds(float64(imageBytes)/rate)
}

// JoinMap returns the joiner-observed cost of receiving the page-
// location map from the master at a join.
func (k *Costs) JoinMap(master, joiner simnet.MachineID, bytes int) simtime.Seconds {
	return k.RoundTrip(joiner, master) + k.Wire(master, joiner, bytes) + k.MsgOverhead(joiner)
}
