package runner

import (
	"bytes"
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

// TestRunContextShardFilterPartitions runs every shard of a grid
// separately and checks the shard reports partition the job list: each
// owned subset is in global job order, the subsets are disjoint, and
// merging them reproduces the unsharded report byte for byte.
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
	var parts []*Report
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
		parts = append(parts, part)
	}
	if total != len(full.Results) {
		t.Fatalf("shards hold %d cells, grid has %d", total, len(full.Results))
	}
	merged, err := MergeShards(grid, parts...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := full.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merged shard reports differ from the unsharded run:\nfull:\n%s\nmerged:\n%s", a.String(), b.String())
	}
}

// TestMergeShardsShuffled pins order independence: shard reports fed in
// any order, with cells shuffled inside each report, merge to the same
// bytes.
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
	var want bytes.Buffer
	if err := full.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		const shards = 4
		parts := make([]*Report, shards)
		for i := range parts {
			parts[i] = &Report{Grid: full.Grid}
		}
		for _, r := range full.Results {
			i := rng.Intn(shards) // any partition, not just the hash's
			parts[i].Results = append(parts[i].Results, r)
		}
		for _, p := range parts {
			rng.Shuffle(len(p.Results), func(a, b int) {
				p.Results[a], p.Results[b] = p.Results[b], p.Results[a]
			})
		}
		rng.Shuffle(len(parts), func(a, b int) { parts[a], parts[b] = parts[b], parts[a] })
		merged, err := MergeShards(grid, parts...)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := merged.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("round %d: shuffled merge differs from the direct report", round)
		}
	}
}

// TestMergeShardsMissingAndForeign pins the failure semantics: missing
// cells come back canceled (and mark the report canceled), foreign or
// duplicated cells are an error.
func TestMergeShardsMissingAndForeign(t *testing.T) {
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8, 14}}
	full, err := Run(grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	partial := &Report{Grid: full.Grid, Results: full.Results[:1]}
	merged, err := MergeShards(grid, partial)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Canceled {
		t.Error("merge with a missing cell not marked canceled")
	}
	if !merged.Results[1].Canceled || merged.Results[1].Benchmark != "D26_media" {
		t.Errorf("missing cell slot malformed: %+v", merged.Results[1])
	}
	if merged.Results[0].Canceled {
		t.Error("present cell marked canceled")
	}

	if _, err := MergeShards(grid, partial, partial); err == nil {
		t.Error("duplicated cell accepted")
	}
	foreign := &Report{Results: []Result{{Job: Job{Benchmark: "no_such", SwitchCount: 1}}}}
	if _, err := MergeShards(grid, foreign); err == nil {
		t.Error("foreign cell accepted")
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
