// Sharding primitives of the distributed sweep backend: a stable cell
// key, a deterministic cell→shard assignment, and the placement that
// writes each shard's results into their grid slots, so the assembled
// report is the exact report a single-process run would have produced.
// The invariant the conformance and fuzz suites pin: for ANY partition of
// a grid's cells into shards, arriving in any order, the assembled report
// is byte-identical JSON to RunContext on the whole grid.

package runner

import "strconv"

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
	return string(j.appendKey(buf[:0]))
}

// appendKey appends j's Key to b.
func (j Job) appendKey(b []byte) []byte {
	b = append(b, j.Benchmark...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.SwitchCount), 10)
	b = append(b, '|')
	b = append(b, j.Routing...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(j.Faults), 10)
	b = append(b, '|')
	b = append(b, j.Policy...)
	b = append(b, '|')
	return strconv.AppendInt(b, j.Seed, 10)
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
	var buf [64]byte
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for _, c := range j.appendKey(buf[:0]) {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return int(h % uint64(shards))
}

// placeShard writes one shard's results into their grid slots. got holds
// exactly the shard's cells in grid order — a report shardReport
// accepted — so got[k] is the cell of slot cells[k].
func placeShard(results []Result, cells []int, got []Result) {
	for k, i := range cells {
		results[i] = got[k]
	}
}
