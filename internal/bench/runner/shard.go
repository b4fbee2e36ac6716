// Sharding primitives of the distributed sweep backend: a stable cell
// key, a deterministic cell→shard assignment, and the merge stage that
// reassembles per-shard reports into the exact report a single-process
// run would have produced. The invariant the conformance and fuzz suites
// pin: for ANY partition of a grid's cells into shard reports,
// MergeShards yields byte-identical JSON to RunContext on the whole grid.

package runner

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// DefaultShardCount is the most shards a sharded sweep is cut into, and
// the count of a run whose cells are simulated or whose fleet is live
// (see shardCount). A run's count is fixed when it starts, so the
// cell→shard assignment never changes while workers join, leave, or
// die; shards are the unit handed out to (and requeued between) workers.
const DefaultShardCount = 32

// Key is the canonical identity of a grid cell: every axis that
// distinguishes one job from another, joined in a fixed order. Two jobs
// with equal keys are the same cell and evaluate to the same result.
func (j Job) Key() string {
	var buf [64]byte
	b := append(buf[:0], j.Benchmark...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.SwitchCount), 10)
	b = append(b, '|')
	b = append(b, j.Routing...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.Faults), 10)
	b = append(b, '|')
	b = append(b, j.Policy...)
	b = append(b, '|')
	b = strconv.AppendInt(b, j.Seed, 10)
	return string(b)
}

// ShardOf deterministically assigns a cell to one of shards buckets: the
// 64-bit FNV-1a hash of its Key, reduced mod shards. The hash depends
// only on the cell's identity — never on worker count, scheduling, or
// enumeration order — so every participant (coordinator, workers,
// re-runs) computes the identical assignment.
func ShardOf(j Job, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(j.Key()))
	return int(h.Sum64() % uint64(shards))
}

// MergeShards reassembles per-shard reports into the report RunContext
// would have produced over the whole grid: results land in Grid.Jobs
// order regardless of which shard carried them or in what order shards
// (or cells within a shard) arrive. Cells present in no shard report are
// marked canceled — a merged report is structurally complete even when
// shards went missing — and the merged report is marked canceled whenever
// any input shard was, or any cell is missing. A result for a cell the
// grid does not contain (or a duplicate beyond the grid's multiplicity)
// is an ErrInvalidInput: shard reports must partition the grid.
func MergeShards(grid Grid, shards ...*Report) (*Report, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	grid = grid.normalized()
	jobs := grid.Jobs()
	// Slot queue per key: duplicate axis entries yield identical cells, so
	// equal keys are filled first-come into successive slots.
	slots := make(map[string][]int, len(jobs))
	for i, j := range jobs {
		k := j.Key()
		slots[k] = append(slots[k], i)
	}
	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))
	canceled := false
	for _, sr := range shards {
		if sr == nil {
			continue
		}
		if sr.Canceled {
			canceled = true
		}
		for _, res := range sr.Results {
			k := res.Job.Key()
			free := slots[k]
			if len(free) == 0 {
				return nil, fmt.Errorf("%w: shard result for unknown or duplicated cell %q", nocerr.ErrInvalidInput, k)
			}
			i := free[0]
			slots[k] = free[1:]
			results[i] = res
			filled[i] = true
		}
	}
	for i := range results {
		if !filled[i] {
			results[i] = Result{Job: jobs[i], Canceled: true}
			canceled = true
		}
	}
	rep := &Report{Grid: grid, Canceled: canceled, Results: results}
	// Shard reports never carry curves; the merged report aggregates
	// them from the reassembled results, exactly as an unsharded
	// RunContext would.
	rep.Curves = BuildCurves(rep)
	return rep, nil
}
