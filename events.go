package nocdr

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// EventKind discriminates the entries of a Session's progress feed.
type EventKind int

const (
	// EventCycleBroken fires after every executed Algorithm 1 cycle
	// break; Event.Break carries the full record.
	EventCycleBroken EventKind = iota + 1
	// EventVCAdded fires once per virtual channel the removal provisions
	// (a break adding k channels emits k of these after its
	// EventCycleBroken); Event.Channel names the new channel.
	EventVCAdded
	// EventSweepCell fires when one sweep grid cell completes;
	// Event.Cell carries its result, Event.CellIndex/CellTotal its slot.
	EventSweepCell
	// EventSimEpoch fires every SimConfig.EpochCycles simulated cycles
	// of a Session simulation; Event.Epoch carries the snapshot.
	EventSimEpoch
	// EventShardAssigned fires when a sharded sweep (WithWorkers) hands a
	// shard to a worker, including reassignments after a failure;
	// Event.Shard/ShardTotal name the shard, Event.Worker the URL.
	EventShardAssigned
	// EventWorkerRetry fires when a sharded sweep requeues a shard after
	// a worker failure; Event.Shard and Event.Worker identify the failed
	// attempt, Event.WorkerErr carries the failure.
	EventWorkerRetry
	// EventReconfigStage fires on every state transition of an online
	// reconfiguration (rerouting → replaying → simulating →
	// committed, or rolled_back); Event.Stage names the stage and
	// Event.Fault the link being retired. Replay cycle breaks arrive as
	// ordinary EventCycleBroken/EventVCAdded events between the
	// rerouting and simulating stages.
	EventReconfigStage
	// EventReconfigDelta fires once per committed fault event;
	// Event.Delta carries the full report.
	EventReconfigDelta
)

// String names the kind for logs ("cycle_broken", "vc_added", ...).
func (k EventKind) String() string {
	switch k {
	case EventCycleBroken:
		return "cycle_broken"
	case EventVCAdded:
		return "vc_added"
	case EventSweepCell:
		return "sweep_cell"
	case EventSimEpoch:
		return "sim_epoch"
	case EventShardAssigned:
		return "shard_assigned"
	case EventWorkerRetry:
		return "worker_retry"
	case EventReconfigStage:
		return "reconfig_stage"
	case EventReconfigDelta:
		return "reconfig_delta"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// SimEpoch is one periodic progress snapshot of a running simulation.
type SimEpoch = wormhole.EpochStats

// Sweep surface, re-exported from the concurrent experiment engine.
type (
	// SweepGrid spans a sweep's (benchmark × switches × policy × seed)
	// job space; the zero value is the paper's default grid.
	SweepGrid = runner.Grid
	// SweepJob is one point of the grid.
	SweepJob = runner.Job
	// SweepResult is one evaluated grid cell.
	SweepResult = runner.Result
	// SweepReport is a completed (possibly canceled-partial) sweep.
	SweepReport = runner.Report
	// SimParams parameterizes a sweep's flit-level verification stage.
	SimParams = runner.SimParams
	// ResultCache is the content-addressed sweep result cache contract
	// (see WithResultCache): Get returns the cached canonical JSON
	// encoding of a cell result, Put stores one. The fabric package's
	// two-tier cache implements it.
	ResultCache = runner.CellCache
	// WorkerSource supplies live worker membership to a distributed
	// sweep (see WithWorkerSource): a snapshot accessor plus a change
	// signal, letting workers that join mid-run pick up unowned shards.
	WorkerSource = runner.WorkerSource
)

// SweepOptions configures Session.Sweep beyond what the Session already
// carries (worker count, removal policy, VC limit, workers, result
// cache).
type SweepOptions struct {
	// Simulate adds the flit-level verification stage to every cell.
	Simulate bool
	// Sim parameterizes the simulations when Simulate is set.
	Sim SimParams
	// Certify adds the independent-checker verification stage to every
	// cell: the pre- and post-removal designs are re-checked from first
	// principles and the three-leg agreement verdict lands in the cell's
	// Certify field.
	Certify bool
	// ShardIndex/ShardCount restrict the sweep to the grid cells the
	// stable shard hash assigns to shard ShardIndex of ShardCount — the
	// worker side of the sharded backend (the /v1/sweep?shard=i/n
	// filter). ShardCount 0 sweeps the whole grid. Mutually exclusive
	// with WithWorkers, which dispatches shards instead of serving one.
	ShardIndex int
	ShardCount int
	// NoCache forces recomputation of every cell even when a
	// WithResultCache cache holds it; fresh results still refresh the
	// cache. Without a cache attached it is a no-op.
	NoCache bool
}

// Event is one entry of a Session's progress feed (see WithProgress).
// Kind selects which of the payload fields are meaningful; the feed is
// delivered synchronously on the goroutine doing the work, so handlers
// must be fast and must not call back into the same Session operation.
type Event struct {
	Kind EventKind

	// Iteration is the 1-based break ordinal (EventCycleBroken,
	// EventVCAdded).
	Iteration int
	// Break is the executed break (EventCycleBroken).
	Break *BreakRecord
	// Channel is the provisioned virtual channel (EventVCAdded).
	Channel Channel

	// CellIndex/CellTotal locate a completed sweep cell
	// (EventSweepCell).
	CellIndex int
	CellTotal int
	// Cell is the completed cell's result (EventSweepCell).
	Cell *SweepResult

	// Epoch is the simulation snapshot (EventSimEpoch).
	Epoch *SimEpoch

	// Shard/ShardTotal locate a sharded-sweep shard (EventShardAssigned,
	// EventWorkerRetry). ShardTotal is the run's shard count: four per
	// worker, at most 32, for unsimulated cells on a fixed worker list,
	// and 32 otherwise.
	Shard      int
	ShardTotal int
	// Worker is the worker URL involved (EventShardAssigned,
	// EventWorkerRetry).
	Worker string
	// WorkerErr is the failure that triggered a requeue
	// (EventWorkerRetry).
	WorkerErr string

	// Stage is the reconfiguration state-machine stage
	// (EventReconfigStage).
	Stage string
	// Fault is the link a reconfiguration is retiring
	// (EventReconfigStage, EventReconfigDelta).
	Fault LinkID
	// Delta is the committed reconfiguration report
	// (EventReconfigDelta).
	Delta *ReconfigDelta
}
