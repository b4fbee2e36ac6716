// Package wormhole is a flit-level, cycle-based simulator of a wormhole
// flow-controlled NoC with virtual channels and static per-flow channel
// routes — the network model of the paper's Definition 3. It exists to
// demonstrate, not just assert, the paper's premise: a route configuration
// whose channel dependency graph is cyclic can deadlock under load, and
// the same workload runs to completion after the removal algorithm (or
// resource ordering) has broken every cycle.
//
// Model summary:
//
//   - Each channel (physical link + VC) has a FIFO flit buffer of
//     configurable depth at its downstream switch and is owned by at most
//     one packet at a time, from the cycle its head flit crosses the link
//     until its tail flit leaves the buffer (wormhole semantics: the worm
//     holds every channel it spans).
//   - A physical link transmits one flit per cycle, arbitrated round-robin
//     among the VCs (and injections) competing for it.
//   - A packet follows its flow's static route channel by channel; the
//     head flit acquires each channel, body flits follow in order, and
//     buffer space is granted against start-of-cycle occupancy
//     (credit-style, one-cycle turnaround).
//   - Ejection at the destination always drains one flit per cycle, so the
//     network sink never back-pressures — deadlocks that appear are pure
//     routing deadlocks, the kind the paper's algorithm removes.
//
// Deadlock detection is two-staged: a progress watchdog notices that no
// flit moved for StallThreshold cycles while flits are in flight, then a
// packet wait-for graph confirms the cyclic wait and reports the packets
// and channels involved.
package wormhole

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// Config parameterizes a simulation. The zero value of every field except
// MaxCycles picks a sensible default.
type Config struct {
	// MaxCycles is the simulation horizon. Required, > 0.
	MaxCycles int64
	// BufferDepth is the per-VC buffer depth in flits. Default 4.
	BufferDepth int
	// LoadFactor scales injection: the heaviest flow attempts a new
	// packet each cycle with this probability, lighter flows
	// proportionally to their bandwidth. Default 0.1; values near 1
	// saturate the network (used to provoke deadlocks).
	LoadFactor float64
	// PacketsPerFlow, when > 0, switches to drain mode: each flow injects
	// exactly this many packets and the simulation ends when all are
	// delivered (or deadlock/MaxCycles strikes first).
	PacketsPerFlow int
	// StallThreshold is how many consecutive cycles without any flit
	// movement trigger deadlock confirmation. Default 256.
	StallThreshold int64
	// SourceQueueCap bounds each flow's source queue (packets created but
	// not yet fully injected) in probabilistic injection mode; a flow at
	// its cap skips creation until the queue drains below it. This keeps
	// saturation runs in bounded memory — offered load beyond the fabric's
	// capacity is shed at the source instead of accumulating as backlog.
	// Default 4. Drain mode (PacketsPerFlow > 0) uses its own priming
	// rule and ignores this.
	SourceQueueCap int
	// WarmupCycles excludes initial transients from latency statistics.
	// Default 0.
	WarmupCycles int64
	// Seed drives the injection process. Default 1.
	Seed int64
	// Recovery enables DISHA-style progressive deadlock recovery: instead
	// of stopping at a confirmed deadlock, one deadlocked packet at a time
	// is drained through a dedicated recovery lane (see recovery.go). The
	// run then never reports Deadlocked; it reports Recoveries instead.
	Recovery bool
	// CollectLatencies records every delivered packet's latency so the
	// Stats percentile helpers work (costs memory on long runs).
	CollectLatencies bool
	// EpochCycles, when > 0 together with OnEpoch, emits an EpochStats
	// snapshot every EpochCycles simulated cycles — the progress feed for
	// long runs. Default 0 (no epochs).
	EpochCycles int64
	// OnEpoch receives the periodic snapshots. It runs on the simulating
	// goroutine; a slow callback slows the simulation.
	OnEpoch func(EpochStats)
	// Reference is ignored: the engine has one arbitration. The map-based
	// arbitration it used to select is this package's test oracle now.
	//
	// Deprecated: setting it has no effect.
	Reference bool
	// Adaptive selects the per-hop output policy for simulators built
	// with NewAdaptive; it is ignored by the single-path engine.
	Adaptive AdaptiveSelection
}

// AdaptiveSelection is the per-hop output-selection policy of an adaptive
// simulator: how a head flit picks among its flow's permitted (and this
// cycle admissible) next channels. Both policies are deterministic given
// the seed: candidates are examined in ascending channel order, so the
// outcome is a pure function of the simulation state.
type AdaptiveSelection int

const (
	// FirstFree takes the lowest-ordered admissible candidate.
	FirstFree AdaptiveSelection = iota
	// LeastCongested takes the admissible candidate whose physical link
	// buffers the fewest flits across its VCs (an admissible channel's
	// own buffer is always empty; the other VCs of its link compete for
	// the same link bandwidth). Ties go to the lowest-ordered candidate.
	LeastCongested
)

// String returns the CLI spelling of the policy.
func (a AdaptiveSelection) String() string {
	if a == LeastCongested {
		return "least-congested"
	}
	return "first-free"
}

// ParseAdaptiveSelection resolves a CLI spelling; empty means FirstFree.
func ParseAdaptiveSelection(s string) (AdaptiveSelection, error) {
	switch s {
	case "", "first-free":
		return FirstFree, nil
	case "least-congested":
		return LeastCongested, nil
	}
	return 0, fmt.Errorf("wormhole: unknown adaptive selection %q (valid: first-free, least-congested): %w",
		s, nocerr.ErrInvalidInput)
}

func (c Config) withDefaults() Config {
	if c.BufferDepth == 0 {
		c.BufferDepth = 4
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 0.1
	}
	if c.StallThreshold == 0 {
		c.StallThreshold = 256
	}
	if c.SourceQueueCap == 0 {
		c.SourceQueueCap = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.MaxCycles <= 0 {
		return fmt.Errorf("wormhole: MaxCycles %d must be > 0", c.MaxCycles)
	}
	if c.BufferDepth < 1 {
		return fmt.Errorf("wormhole: BufferDepth %d must be >= 1", c.BufferDepth)
	}
	// Positive-form check so NaN fails too.
	if !(c.LoadFactor >= 0 && c.LoadFactor <= 1) {
		return fmt.Errorf("wormhole: LoadFactor %f must be in [0,1]", c.LoadFactor)
	}
	if c.Adaptive != FirstFree && c.Adaptive != LeastCongested {
		return fmt.Errorf("wormhole: unknown AdaptiveSelection %d: %w", c.Adaptive, nocerr.ErrInvalidInput)
	}
	if c.StallThreshold < 1 {
		return fmt.Errorf("wormhole: StallThreshold %d must be >= 1", c.StallThreshold)
	}
	if c.PacketsPerFlow < 0 {
		return fmt.Errorf("wormhole: PacketsPerFlow %d must be >= 0", c.PacketsPerFlow)
	}
	if c.SourceQueueCap < 1 {
		return fmt.Errorf("wormhole: SourceQueueCap %d must be >= 1", c.SourceQueueCap)
	}
	if c.WarmupCycles < 0 {
		return fmt.Errorf("wormhole: WarmupCycles %d must be >= 0", c.WarmupCycles)
	}
	if c.EpochCycles < 0 {
		return fmt.Errorf("wormhole: EpochCycles %d must be >= 0", c.EpochCycles)
	}
	return nil
}

// EpochStats is one periodic progress snapshot of a running simulation
// (see Config.EpochCycles/OnEpoch): cumulative counters as of Cycle.
type EpochStats struct {
	Cycle            int64
	InjectedPackets  int64
	DeliveredPackets int64
	DeliveredFlits   int64
	// InFlight is the number of packets currently inside the fabric.
	InFlight int
}

// Stats is the outcome of a simulation run.
type Stats struct {
	Cycles int64

	InjectedPackets  int64
	DeliveredPackets int64
	InjectedFlits    int64
	DeliveredFlits   int64
	// LocalPackets counts same-switch deliveries that never enter the
	// switch fabric.
	LocalPackets int64

	// Latency statistics over fabric packets created after WarmupCycles
	// and delivered before the run ended. Local same-switch deliveries
	// are excluded: their latency is zero by construction and would
	// drown the fabric percentiles.
	LatencyCount int64
	LatencySum   int64
	LatencyMax   int64

	// Deadlock reporting.
	Deadlocked    bool
	DeadlockCycle int64
	// DeadlockPackets are the packet IDs on the confirmed cyclic wait
	// (empty if the watchdog fired but the wait-for graph was acyclic,
	// which indicates a simulator bug and is asserted against in tests).
	DeadlockPackets []int

	// Drained reports that drain mode delivered every injected packet.
	Drained bool

	// Recovery statistics (only non-zero with Config.Recovery).
	// Recoveries counts token grants; RecoveredPackets counts packets
	// delivered through the recovery lane.
	Recoveries       int64
	RecoveredPackets int64

	// Latencies holds every recorded packet latency (sorted ascending)
	// when Config.CollectLatencies is set.
	Latencies []int64

	// PerFlow holds per-flow delivery counters indexed by flow ID.
	PerFlow []FlowStats
}

// FlowStats is one flow's delivery record.
type FlowStats struct {
	Injected   int64 // packets that entered the fabric (or recovery lane)
	Delivered  int64 // packets fully delivered
	LatencySum int64 // summed latency of delivered packets (post warm-up)
	LatencyN   int64
}

// AvgLatency returns the flow's mean delivered-packet latency.
func (f FlowStats) AvgLatency() float64 {
	if f.LatencyN == 0 {
		return 0
	}
	return float64(f.LatencySum) / float64(f.LatencyN)
}

// AvgLatency returns the mean packet latency in cycles (0 if no samples).
func (s *Stats) AvgLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}

// ThroughputFlitsPerCycle returns delivered flits per elapsed cycle.
func (s *Stats) ThroughputFlitsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DeliveredFlits) / float64(s.Cycles)
}

// LatencyPercentile returns the p-th percentile latency (p in [0,100])
// from the collected samples, or 0 if CollectLatencies was off or no
// packet was delivered.
func (s *Stats) LatencyPercentile(p float64) int64 {
	if len(s.Latencies) == 0 {
		return 0
	}
	if p <= 0 {
		return s.Latencies[0]
	}
	if p >= 100 {
		return s.Latencies[len(s.Latencies)-1]
	}
	idx := int(p / 100 * float64(len(s.Latencies)-1))
	return s.Latencies[idx]
}
