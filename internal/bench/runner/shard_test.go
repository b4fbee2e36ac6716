package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestJobKeyGolden pins the bytes of Job.Key and the ShardOf assignment.
// A worker filters its shard with its own ShardOf and the dispatcher
// retires a worker whose report does not hold exactly the shard's cells,
// so a change to either splits coordinators and workers of different
// builds. The rows are the 36 cells of the fleet grid (three transpose
// presets × three adaptive routings × four seeds, one fault) and a few
// edge jobs.
func TestJobKeyGolden(t *testing.T) {
	golden := []struct {
		job   Job
		key   string
		shard int
	}{
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:4x4:transpose|16|west-first|1|smallest|0", 22},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:4x4:transpose|16|west-first|1|smallest|1", 9},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:4x4:transpose|16|west-first|1|smallest|2", 16},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:4x4:transpose|16|west-first|1|smallest|3", 3},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:4x4:transpose|16|odd-even|1|smallest|0", 14},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:4x4:transpose|16|odd-even|1|smallest|1", 1},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:4x4:transpose|16|odd-even|1|smallest|2", 8},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:4x4:transpose|16|odd-even|1|smallest|3", 27},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:4x4:transpose|16|min-adaptive|1|smallest|0", 21},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:4x4:transpose|16|min-adaptive|1|smallest|1", 2},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:4x4:transpose|16|min-adaptive|1|smallest|2", 15},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:4x4:transpose|16|min-adaptive|1|smallest|3", 28},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 0}, "torus:4x4:transpose|16|west-first|1|smallest|0", 28},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 1}, "torus:4x4:transpose|16|west-first|1|smallest|1", 15},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 2}, "torus:4x4:transpose|16|west-first|1|smallest|2", 2},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 3}, "torus:4x4:transpose|16|west-first|1|smallest|3", 21},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 0}, "torus:4x4:transpose|16|odd-even|1|smallest|0", 12},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 1}, "torus:4x4:transpose|16|odd-even|1|smallest|1", 31},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 2}, "torus:4x4:transpose|16|odd-even|1|smallest|2", 18},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 3}, "torus:4x4:transpose|16|odd-even|1|smallest|3", 5},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 0}, "torus:4x4:transpose|16|min-adaptive|1|smallest|0", 31},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 1}, "torus:4x4:transpose|16|min-adaptive|1|smallest|1", 12},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 2}, "torus:4x4:transpose|16|min-adaptive|1|smallest|2", 5},
		{Job{Benchmark: "torus:4x4:transpose", SwitchCount: 16, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 3}, "torus:4x4:transpose|16|min-adaptive|1|smallest|3", 18},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:6x6:transpose|36|west-first|1|smallest|0", 8},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:6x6:transpose|36|west-first|1|smallest|1", 27},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:6x6:transpose|36|west-first|1|smallest|2", 14},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:6x6:transpose|36|west-first|1|smallest|3", 1},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:6x6:transpose|36|odd-even|1|smallest|0", 24},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:6x6:transpose|36|odd-even|1|smallest|1", 11},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:6x6:transpose|36|odd-even|1|smallest|2", 30},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "odd-even", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:6x6:transpose|36|odd-even|1|smallest|3", 17},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 0}, "mesh:6x6:transpose|36|min-adaptive|1|smallest|0", 19},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 1}, "mesh:6x6:transpose|36|min-adaptive|1|smallest|1", 0},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 2}, "mesh:6x6:transpose|36|min-adaptive|1|smallest|2", 25},
		{Job{Benchmark: "mesh:6x6:transpose", SwitchCount: 36, Routing: "min-adaptive", Faults: 1, Policy: "smallest", Seed: 3}, "mesh:6x6:transpose|36|min-adaptive|1|smallest|3", 6},
		{Job{Benchmark: "D36_8", SwitchCount: 14, Routing: "", Faults: 0, Policy: "smallest", Seed: 0}, "D36_8|14||0|smallest|0", 7},
		{Job{Benchmark: "D26_media", SwitchCount: 8, Routing: "", Faults: 0, Policy: "first", Seed: -7}, "D26_media|8||0|first|-7", 22},
		{Job{Benchmark: "rand:128x6", SwitchCount: 48, Routing: "", Faults: 0, Policy: "smallest", Seed: math.MaxInt64}, "rand:128x6|48||0|smallest|9223372036854775807", 28},
		{Job{Benchmark: "rand:24x4", SwitchCount: 12, Routing: "", Faults: 0, Policy: "smallest", Seed: math.MinInt64}, "rand:24x4|12||0|smallest|-9223372036854775808", 4},
		{Job{Benchmark: "torus:8", SwitchCount: 64, Routing: "odd-even", Faults: 3, Policy: "first", Seed: 1099511627776}, "torus:8|64|odd-even|3|first|1099511627776", 30},
		{Job{Benchmark: "", SwitchCount: 0, Routing: "", Faults: 0, Policy: "", Seed: 0}, "|0||0||0", 25},
	}
	for _, c := range golden {
		if got := c.job.Key(); got != c.key {
			t.Errorf("%+v: Key %q, want %q", c.job, got, c.key)
		}
		if got := ShardOf(c.job, DefaultShardCount); got != c.shard {
			t.Errorf("%q: ShardOf %d, want %d", c.key, got, c.shard)
		}
	}
	fleet := Grid{
		Benchmarks: []string{"mesh:4x4:transpose", "torus:4x4:transpose", "mesh:6x6:transpose"},
		Policies:   []string{"smallest"},
		Routings:   []string{"west-first", "odd-even", "min-adaptive"},
		Faults:     1,
		Seeds:      []int64{0, 1, 2, 3},
	}
	jobs := fleet.Jobs()
	if len(jobs) != 36 {
		t.Fatalf("fleet grid has %d cells, want 36", len(jobs))
	}
	for i, j := range jobs {
		if j != golden[i].job {
			t.Errorf("fleet grid cell %d is %+v, want %+v", i, j, golden[i].job)
		}
	}
}

// TestShardOfStableAndBounded pins the assignment contract: pure function
// of the cell key, in range, and indifferent to everything but identity.
func TestShardOfStableAndBounded(t *testing.T) {
	grid := Grid{
		Benchmarks: []string{"D26_media", "mesh:4", "torus:4x4:transpose"},
		Routings:   []string{"west-first", "odd-even"},
		Seeds:      []int64{0, 1, 2},
	}
	jobs := grid.Jobs()
	for _, n := range []int{1, 2, 3, 7, DefaultShardCount} {
		for _, j := range jobs {
			s := ShardOf(j, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", j.Key(), n, s)
			}
			if again := ShardOf(j, n); again != s {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", j.Key(), n, s, again)
			}
		}
	}
	// Distinct cells must get distinct keys.
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Key()] {
			t.Fatalf("duplicate key %q for distinct cells", j.Key())
		}
		seen[j.Key()] = true
	}
}

// liveFleet is a WorkerSource whose membership never changes.
type liveFleet []string

func (f liveFleet) WorkerURLs() []string     { return f }
func (f liveFleet) Updates() <-chan struct{} { return nil }

// TestShardCount pins the shard count of a run: four per distinct worker
// URL of a fixed fleet whose cells are not simulated, at most
// DefaultShardCount; DefaultShardCount for a live fleet, for simulated
// cells and for a list with no URL.
func TestShardCount(t *testing.T) {
	urls := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("http://w%d", i)
		}
		return out
	}
	for _, c := range []struct {
		name   string
		d      Sharded
		opts   Options
		shards int
	}{
		{"1 worker", Sharded{Workers: urls(1)}, Options{}, 4},
		{"2 workers", Sharded{Workers: urls(2)}, Options{}, 8},
		{"3 workers", Sharded{Workers: urls(3)}, Options{}, 12},
		{"4 workers", Sharded{Workers: urls(4)}, Options{}, 16},
		{"5 workers", Sharded{Workers: urls(5)}, Options{}, 20},
		{"8 workers", Sharded{Workers: urls(8)}, Options{}, 32},
		{"40 workers", Sharded{Workers: urls(40)}, Options{}, 32},
		{"repeated and empty URLs", Sharded{Workers: []string{"http://a", "", "http://a", "http://b"}}, Options{}, 8},
		{"no URL", Sharded{Workers: []string{""}}, Options{}, 32},
		{"simulated", Sharded{Workers: urls(2)}, Options{Simulate: true}, 32},
		{"live fleet", Sharded{Source: liveFleet(urls(2))}, Options{}, 32},
		{"fixed and live", Sharded{Workers: urls(2), Source: liveFleet(nil)}, Options{}, 32},
	} {
		if got := c.d.shardCount(c.opts); got != c.shards {
			t.Errorf("%s: shardCount = %d, want %d", c.name, got, c.shards)
		}
	}
}

// assembleShards is the dispatcher's placement over wire-form shard
// reports: raw[s] is shard s's report as a worker sends it, cells[s] its
// grid slots in grid order. Shards arrive in order; each is checked by
// shardReport against its cells and placed into its slots, and a shard
// that never arrives leaves its slots unfilled.
func assembleShards(grid Grid, cells [][]int, raw [][]byte, order []int) (*Report, error) {
	grid = grid.normalized()
	jobs := grid.Jobs()
	results := make([]Result, len(jobs))
	filled := make([]bool, len(jobs))
	canceled := false
	for _, s := range order {
		want := make([]Job, len(cells[s]))
		for k, i := range cells[s] {
			want[k] = jobs[i]
		}
		rep, err := shardReport(raw[s], want)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		canceled = canceled || rep.Canceled
		placeShard(results, filled, cells[s], rep.Results)
	}
	return shardedReport(grid, jobs, results, filled, canceled), nil
}

// splitReport cuts a whole-grid report into shards by assign (the shard
// of each cell, by slot) and returns each shard's slots and its report
// encoded as a worker sends it, cells in grid order.
func splitReport(t *testing.T, full *Report, n int, assign func(i int) int) ([][]int, [][]byte) {
	t.Helper()
	cells := make([][]int, n)
	parts := make([]Report, n)
	for i := range parts {
		parts[i].Grid = full.Grid
	}
	for i, r := range full.Results {
		s := assign(i)
		cells[s] = append(cells[s], i)
		parts[s].Results = append(parts[s].Results, r)
	}
	raw := make([][]byte, n)
	for s := range parts {
		data, err := json.Marshal(&parts[s])
		if err != nil {
			t.Fatal(err)
		}
		raw[s] = data
	}
	return cells, raw
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestRunContextShardFilterPartitions runs every shard of a grid
// separately and checks the shard reports partition the job list: each
// owned subset is in global job order, the subsets are disjoint, and
// placing them reproduces the unsharded report byte for byte.
func TestRunContextShardFilterPartitions(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"D26_media", "mesh:4"},
		SwitchCounts: []int{8, 14},
		Routings:     []string{"west-first", "odd-even"},
		Seeds:        []int64{0, 1},
	}
	full, err := Run(grid, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	cells := make([][]int, shards)
	for i, j := range grid.Jobs() {
		s := ShardOf(j, shards)
		cells[s] = append(cells[s], i)
	}
	raw := make([][]byte, shards)
	total := 0
	for i := 0; i < shards; i++ {
		part, err := Run(grid, Options{Parallel: 2, ShardIndex: i, ShardCount: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range part.Results {
			if ShardOf(r.Job, shards) != i {
				t.Fatalf("shard %d report carries foreign cell %q", i, r.Job.Key())
			}
		}
		total += len(part.Results)
		if raw[i], err = json.Marshal(part); err != nil {
			t.Fatal(err)
		}
	}
	if total != len(full.Results) {
		t.Fatalf("shards hold %d cells, grid has %d", total, len(full.Results))
	}
	placed, err := assembleShards(grid, cells, raw, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportJSON(t, full), reportJSON(t, placed); !bytes.Equal(a, b) {
		t.Fatalf("placed shard reports differ from the unsharded run:\nfull:\n%s\nplaced:\n%s", a, b)
	}
}

// TestMergeShardsShuffled pins order independence of the placement that
// replaced MergeShards: shard reports arriving in any order, over any
// partition of the cells, assemble to the same bytes; a report whose
// cells are not in grid order is rejected.
func TestMergeShardsShuffled(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"D26_media", "mesh:4"},
		SwitchCounts: []int{8, 11, 14},
		Seeds:        []int64{0, 1},
	}
	full, err := Run(grid, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, full)
	rng := rand.New(rand.NewSource(7))
	const shards = 4
	for round := 0; round < 20; round++ {
		assign := make([]int, len(full.Results))
		for i := range assign {
			assign[i] = rng.Intn(shards) // any partition, not just the hash's
		}
		cells, raw := splitReport(t, full, shards, func(i int) int { return assign[i] })
		order := rng.Perm(shards)
		placed, err := assembleShards(grid, cells, raw, order)
		if err != nil {
			t.Fatal(err)
		}
		if got := reportJSON(t, placed); !bytes.Equal(want, got) {
			t.Fatalf("round %d: arrival order %v assembles a different report", round, order)
		}
	}

	// A report holding its shard's cells out of grid order is corrupt.
	cells, _ := splitReport(t, full, 1, func(int) int { return 0 })
	swapped := &Report{Grid: full.Grid, Results: append([]Result(nil), full.Results...)}
	swapped.Results[0], swapped.Results[1] = swapped.Results[1], swapped.Results[0]
	data, err := json.Marshal(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := assembleShards(grid, cells, [][]byte{data}, []int{0}); err == nil {
		t.Fatal("a report with its cells out of grid order was accepted")
	}
}

// TestMergeShardsMissingAndForeign pins the failure semantics of the
// placement that replaced MergeShards: a missing shard's cells come back
// canceled (and mark the report canceled), and a report that is not
// exactly its shard's cells — one missing, duplicated, foreign or extra —
// is rejected.
func TestMergeShardsMissingAndForeign(t *testing.T) {
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8, 11, 14}}
	full, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells, raw := splitReport(t, full, 2, func(i int) int { return min(i, 1) })
	placed, err := assembleShards(grid, cells, raw, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !placed.Canceled {
		t.Error("report with a missing shard not marked canceled")
	}
	for _, i := range cells[1] {
		if r := placed.Results[i]; !r.Canceled || r.Job != full.Results[i].Job || r.RemovalVCs != 0 {
			t.Errorf("missing cell slot %d malformed: %+v", i, r)
		}
	}
	if got, want := placed.Results[0], full.Results[0]; got.Canceled || got.Job != want.Job || got.RemovalVCs != want.RemovalVCs {
		t.Errorf("present cell not placed verbatim: %+v", got)
	}

	// cells[1] is slots 1 and 2; each report below answers for it.
	r := full.Results
	foreign := r[1]
	foreign.Benchmark = "no_such"
	for name, results := range map[string][]Result{
		"missing":    {r[1]},
		"duplicated": {r[1], r[1]},
		"foreign":    {foreign, r[2]},
		"other slot": {r[0], r[2]},
		"extra":      {r[1], r[2], r[0]},
	} {
		data, err := json.Marshal(&Report{Grid: full.Grid, Results: results})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := assembleShards(grid, cells, [][]byte{raw[0], data}, []int{0, 1}); err == nil {
			t.Errorf("%s cell accepted", name)
		}
	}
}

// TestRunContextShardValidation rejects out-of-range shard filters.
func TestRunContextShardValidation(t *testing.T) {
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8}}
	for _, bad := range []Options{
		{ShardCount: -1},
		{ShardIndex: -1, ShardCount: 2},
		{ShardIndex: 2, ShardCount: 2},
	} {
		if _, err := Run(grid, bad); err == nil {
			t.Errorf("shard filter %d/%d accepted", bad.ShardIndex, bad.ShardCount)
		}
	}
}
