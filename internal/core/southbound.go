package core

import (
	"sync/atomic"
	"time"

	"github.com/unify-repro/escape/internal/obs"
)

// SouthboundStats count the device-programming half of the control plane:
// what left the orchestrator toward real dataplanes (flow-mods, barriers,
// NETCONF RPCs, container operations) and what it cost. The interesting
// ratios are FlowMods/Barriers (pipelining amortization — equals the delta
// size when the southbound path batches perfectly, 1 when it is serialized)
// and NetconfRPCs/Deltas (1 when a delta's edits coalesce into one RPC).
type SouthboundStats struct {
	// Deltas counts committed device-programming deltas.
	Deltas uint64 `json:"deltas"`
	// FlowMods counts OpenFlow flow modification messages sent.
	FlowMods uint64 `json:"flow_mods"`
	// Barriers counts OpenFlow barrier round-trips.
	Barriers uint64 `json:"barriers"`
	// WindowHighWater is the maximum un-barriered in-flight flow-mods
	// observed on any single datapath pipeline.
	WindowHighWater uint64 `json:"window_high_water"`
	// NetconfRPCs counts NETCONF RPC round-trips.
	NetconfRPCs uint64 `json:"netconf_rpcs"`
	// ContainerOps counts container runtime operations (create/start/stop/
	// remove on the UN, server boots/deletes on OpenStack).
	ContainerOps uint64 `json:"container_ops"`
	// LatencyTotalNS/LatencyMaxNS accumulate per-delta southbound wall-clock
	// (the time from entering a Programmer's Commit to its return).
	LatencyTotalNS uint64 `json:"latency_total_ns"`
	LatencyMaxNS   uint64 `json:"latency_max_ns"`
	// DeltaLatency is the per-delta southbound wall-clock distribution
	// (power-of-two buckets), mergeable up the orchestrator hierarchy like
	// the scalar counters.
	DeltaLatency obs.HistogramSnapshot `json:"delta_latency"`
}

// MeanDeltaLatency is the mean southbound wall-clock per delta.
func (s SouthboundStats) MeanDeltaLatency() time.Duration {
	if s.Deltas == 0 {
		return 0
	}
	return time.Duration(s.LatencyTotalNS / s.Deltas)
}

// FlowModsPerBarrier is the pipelining amortization ratio: how many rules
// each barrier round-trip paid for. 1.0 means fully serialized programming.
func (s SouthboundStats) FlowModsPerBarrier() float64 {
	if s.Barriers == 0 {
		return 0
	}
	return float64(s.FlowMods) / float64(s.Barriers)
}

// MaxDeltaLatency is the worst southbound wall-clock seen for one delta.
func (s SouthboundStats) MaxDeltaLatency() time.Duration {
	return time.Duration(s.LatencyMaxNS)
}

// Merge folds another snapshot into s (sums for counters, max for the
// high-water and worst-case marks) — how an orchestrator aggregates its
// children.
func (s *SouthboundStats) Merge(o SouthboundStats) {
	s.Deltas += o.Deltas
	s.FlowMods += o.FlowMods
	s.Barriers += o.Barriers
	s.NetconfRPCs += o.NetconfRPCs
	s.ContainerOps += o.ContainerOps
	s.LatencyTotalNS += o.LatencyTotalNS
	s.DeltaLatency.Merge(o.DeltaLatency)
	if o.WindowHighWater > s.WindowHighWater {
		s.WindowHighWater = o.WindowHighWater
	}
	if o.LatencyMaxNS > s.LatencyMaxNS {
		s.LatencyMaxNS = o.LatencyMaxNS
	}
}

// SouthboundRecorder is the atomic backing Programmers record into while a
// delta is being applied. Safe for concurrent use (parallel per-datapath
// fan-out records from many goroutines).
type SouthboundRecorder struct {
	flowMods, barriers, windowHW atomic.Uint64
	netconfRPCs, containerOps    atomic.Uint64
	latencyMax                   atomic.Uint64
	deltaHist                    obs.Histogram // also the delta count and latency sum
}

// AddFlowMods counts n flow-mods sent.
func (r *SouthboundRecorder) AddFlowMods(n uint64) { r.flowMods.Add(n) }

// AddBarriers counts n barrier round-trips.
func (r *SouthboundRecorder) AddBarriers(n uint64) { r.barriers.Add(n) }

// AddNetconfRPCs counts n NETCONF RPC round-trips.
func (r *SouthboundRecorder) AddNetconfRPCs(n uint64) { r.netconfRPCs.Add(n) }

// AddContainerOps counts n container runtime operations.
func (r *SouthboundRecorder) AddContainerOps(n uint64) { r.containerOps.Add(n) }

// ObserveWindow raises the in-flight high-water mark to hw if higher.
func (r *SouthboundRecorder) ObserveWindow(hw uint64) {
	for {
		cur := r.windowHW.Load()
		if hw <= cur || r.windowHW.CompareAndSwap(cur, hw) {
			return
		}
	}
}

// ObserveDelta records one completed delta and its southbound wall-clock.
func (r *SouthboundRecorder) ObserveDelta(d time.Duration) {
	r.deltaHist.Observe(d)
	ns := uint64(d.Nanoseconds())
	for {
		cur := r.latencyMax.Load()
		if ns <= cur || r.latencyMax.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot returns the current counters.
func (r *SouthboundRecorder) Snapshot() SouthboundStats {
	hist := r.deltaHist.Snapshot()
	return SouthboundStats{
		Deltas:          hist.Count,
		FlowMods:        r.flowMods.Load(),
		Barriers:        r.barriers.Load(),
		WindowHighWater: r.windowHW.Load(),
		NetconfRPCs:     r.netconfRPCs.Load(),
		ContainerOps:    r.containerOps.Load(),
		LatencyTotalNS:  hist.SumNS,
		LatencyMaxNS:    r.latencyMax.Load(),
		DeltaLatency:    hist,
	}
}

// SouthboundStatsProvider is any layer exposing southbound counters. Leaf
// domains (whose Programmers record) and resource orchestrators (which
// aggregate their children) both implement it.
type SouthboundStatsProvider interface {
	SouthboundStats() SouthboundStats
}
