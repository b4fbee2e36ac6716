package runner

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// TestGroupedSweepBuildsEachDesignOnce is the cache-effectiveness counter
// test: an 8-seed grid must build every design exactly once, because the
// seeds axis varies only the injection process for deterministic
// benchmarks. Seeded random traffic and faulted presets genuinely differ
// per seed, so those designs build once per seed.
func TestGroupedSweepBuildsEachDesignOnce(t *testing.T) {
	builds := map[string]int{}
	designBuildHook = func(j Job) { builds[j.Key()]++ }
	defer func() { designBuildHook = nil }()

	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	grid := Grid{
		Benchmarks:   []string{"transpose:16", "mesh:3"},
		SwitchCounts: []int{8},
		Seeds:        seeds,
	}
	if _, err := Run(grid, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := len(builds); got != 2 {
		t.Fatalf("8-seed grid built %d designs, want 2 (one per benchmark): %v", got, builds)
	}
	for k, n := range builds {
		if n != 1 {
			t.Errorf("design %q built %d times, want 1", k, n)
		}
	}

	// Seed-dependent designs must NOT be collapsed across seeds.
	builds = map[string]int{}
	seeded := Grid{
		Benchmarks:   []string{"rand:12x2"},
		SwitchCounts: []int{8},
		Seeds:        []int64{1, 2, 3},
	}
	if _, err := Run(seeded, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := len(builds); got != 3 {
		t.Fatalf("3-seed rand grid built %d designs, want 3: %v", got, builds)
	}
}

// TestGroupedSweepMatchesPerCell is the scheduler-level differential: on
// a simulated multi-seed sweep, every cell of the grouped run must be
// deeply equal to an independent per-cell runJob of the same job — the
// oracle path that builds, certifies and simulates its own design per
// cell. The inputs cover fault-free single-path and adaptive cells (D36_8
// at 8 switches is cyclic, and its witness deadlocks at a cycle that
// depends on the witness load), and certified adaptive cells on faulted
// meshes, whose design depends on the seed.
func TestGroupedSweepMatchesPerCell(t *testing.T) {
	sim := SimParams{Cycles: 3000, Load: 0.8}
	for _, tc := range []struct {
		grid Grid
		opts Options
	}{
		{
			Grid{
				Benchmarks:   []string{"torus:4:transpose", "D26_media", "D36_8"},
				SwitchCounts: []int{8},
				Routings:     []string{"dor", "odd-even"},
				Seeds:        []int64{0, 1, 2},
			},
			Options{Parallel: 4, Simulate: true, Sim: sim},
		},
		{
			Grid{
				Benchmarks: []string{"mesh:4:transpose"},
				Routings:   []string{"west-first", "odd-even"},
				Faults:     1,
				Seeds:      []int64{0, 1, 2},
			},
			Options{Parallel: 4, Simulate: true, Sim: sim, Certify: true},
		},
	} {
		rep, err := Run(tc.grid, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		jobs := tc.grid.Jobs()
		if len(rep.Results) != len(jobs) {
			t.Fatalf("got %d results for %d jobs", len(rep.Results), len(jobs))
		}
		cellOpts := tc.opts
		cellOpts.maxPaths = tc.grid.normalized().MaxPaths
		for i, job := range jobs {
			want := runJob(context.Background(), job, cellOpts)
			got := rep.Results[i]
			// Wall-clock differs by construction; everything serialized
			// must not.
			want.RemovalTime, got.RemovalTime = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cell %d (%s) diverges from per-cell oracle:\n got %+v\nwant %+v", i, job.Key(), got, want)
			}
		}
	}
}

// TestLoadSweepPointsAndCurves runs a small grid with a Loads axis and
// checks the per-cell LoadSweep points and the report-level curves: a
// monotone load axis, one curve per design aggregating all seeds, and a
// canonical measurement unchanged by the extra lanes.
func TestLoadSweepPointsAndCurves(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"torus:4:transpose"},
		SwitchCounts: []int{8},
		Seeds:        []int64{1, 2},
		Loads:        []float64{0.9, 0.1, 0.5, 0.9}, // unsorted + duplicate on purpose
	}
	opts := Options{Simulate: true, Sim: SimParams{Cycles: 3000, Load: 0.8}}
	rep, err := Run(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Grid.Loads, []float64{0.1, 0.5, 0.9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("normalized Loads = %v, want %v", got, want)
	}
	for i, res := range rep.Results {
		if res.Sim == nil {
			t.Fatalf("result %d has no sim", i)
		}
		if got := len(res.Sim.LoadSweep); got != 3 {
			t.Fatalf("result %d has %d sweep points, want 3", i, got)
		}
		for j, lp := range res.Sim.LoadSweep {
			if lp.Load != rep.Grid.Loads[j] {
				t.Errorf("result %d point %d at load %v, want %v", i, j, lp.Load, rep.Grid.Loads[j])
			}
		}
	}
	if len(rep.Curves) != 1 {
		t.Fatalf("got %d curves, want 1 (one per design): %+v", len(rep.Curves), rep.Curves)
	}
	c := rep.Curves[0]
	if c.Benchmark != "torus:4:transpose" || len(c.Points) != 3 {
		t.Fatalf("unexpected curve shape: %+v", c)
	}
	for j, p := range c.Points {
		if p.Seeds != 2 {
			t.Errorf("point %d aggregated %d seeds, want 2", j, p.Seeds)
		}
		if j > 0 && p.Load <= c.Points[j-1].Load {
			t.Errorf("curve load axis not strictly ascending at %d: %v", j, p.Load)
		}
	}

	// The canonical measurement must be identical to the same sweep
	// without a Loads axis.
	plain := grid
	plain.Loads = nil
	prep, err := Run(plain, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Curves) != 0 {
		t.Fatalf("plain sweep grew curves: %+v", prep.Curves)
	}
	for i := range prep.Results {
		got, want := *rep.Results[i].Sim, *prep.Results[i].Sim
		got.LoadSweep = nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d canonical measurement changed by Loads axis:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestGridValidateLoads pins the Loads-axis validation.
func TestGridValidateLoads(t *testing.T) {
	base := Grid{Benchmarks: []string{"transpose:16"}, SwitchCounts: []int{8}}
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		g := base
		g.Loads = []float64{bad}
		if err := g.Validate(); err == nil {
			t.Errorf("load %v validated, want error", bad)
		}
	}
	g := base
	g.Loads = []float64{0.5, 1.0}
	if err := g.Validate(); err != nil {
		t.Errorf("valid loads rejected: %v", err)
	}
}

// synthetic curve helper.
func curve(points ...[3]float64) []CurvePoint {
	out := make([]CurvePoint, len(points))
	for i, p := range points {
		out[i] = CurvePoint{Load: p[0], AvgLatency: p[1], Throughput: p[2], Seeds: 1}
	}
	return out
}

// TestExtractSaturation pins the knee-detection criteria on synthetic
// monotone curves.
func TestExtractSaturation(t *testing.T) {
	cases := []struct {
		name   string
		points []CurvePoint
		want   float64
	}{
		{"empty", nil, 0},
		{"single point", curve([3]float64{0.5, 10, 1}), 0},
		{"linear never saturates", curve(
			[3]float64{0.2, 10, 0.2}, [3]float64{0.4, 11, 0.4}, [3]float64{0.6, 12, 0.6}, [3]float64{0.8, 13, 0.8}), 0},
		{"latency knee at 0.6", curve(
			[3]float64{0.2, 10, 0.2}, [3]float64{0.4, 15, 0.4}, [3]float64{0.6, 40, 0.6}, [3]float64{0.8, 90, 0.8}), 0.6},
		{"throughput flattens at 0.8", curve(
			[3]float64{0.2, 10, 0.2}, [3]float64{0.4, 12, 0.4}, [3]float64{0.6, 14, 0.6}, [3]float64{0.8, 16, 0.604}), 0.8},
	}
	for _, tc := range cases {
		if got := ExtractSaturation(tc.points); got != tc.want {
			t.Errorf("%s: saturation %v, want %v", tc.name, got, tc.want)
		}
	}
	// Any deadlock wins immediately, even at the first point.
	pts := curve([3]float64{0.2, 10, 0.2}, [3]float64{0.4, 11, 0.4})
	pts[0].Deadlocks = 1
	if got := ExtractSaturation(pts); got != 0.2 {
		t.Errorf("deadlock knee: got %v, want 0.2", got)
	}
}
