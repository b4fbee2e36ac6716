package wormhole_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// batchCell is one (topology × routing) design of the differential
// matrix. mk builds the oracle simulator, mkBatch the batch under test,
// from the same shared inputs.
type batchCell struct {
	name    string
	mk      func(cfg wormhole.Config) (*wormhole.Simulator, error)
	mkBatch func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error)
}

// batchMatrix builds the (mesh/torus × dor/odd-even/min-adaptive)
// differential cells over transpose traffic.
func batchMatrix(t *testing.T, n int) []batchCell {
	t.Helper()
	var cells []batchCell
	for _, shape := range []string{"mesh", "torus"} {
		var grid *regular.Grid
		var err error
		if shape == "mesh" {
			grid, err = regular.Mesh(n, n)
		} else {
			grid, err = regular.Torus(n, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		g, err := traffic.Transpose(n * n)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := regular.DORRoutes(grid, g)
		if err != nil {
			t.Fatal(err)
		}
		// Repair the DOR table so torus cells exercise long runs, not
		// just an early identical deadlock.
		res, err := core.Remove(grid.Topology, tab, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		top, rtab := res.Topology, res.Routes
		cells = append(cells, batchCell{
			name: shape + "/dor",
			mk: func(cfg wormhole.Config) (*wormhole.Simulator, error) {
				return wormhole.New(top, g, rtab, cfg)
			},
			mkBatch: func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
				return wormhole.NewBatch(top, g, rtab, cfg, vs)
			},
		})
		for _, model := range []route.TurnModel{route.OddEven, route.MinimalAdaptive} {
			set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, 4)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := core.RemoveSetContext(context.Background(), grid.Topology, set, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			stop, sset := sres.Topology, sres.Routes
			cells = append(cells, batchCell{
				name: shape + "/" + model.String(),
				mk: func(cfg wormhole.Config) (*wormhole.Simulator, error) {
					return wormhole.NewAdaptive(stop, g, sset, cfg)
				},
				mkBatch: func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
					return wormhole.NewAdaptiveBatch(stop, g, sset, cfg, vs)
				},
			})
		}
	}
	return cells
}

// oracleRun is the sequential reference: an independent single-variant
// simulator built with the variant's (seed, load) folded into the base
// config.
func oracleRun(t *testing.T, cell batchCell, cfg wormhole.Config, v wormhole.Variant) *wormhole.Stats {
	t.Helper()
	if v.Seed != 0 {
		cfg.Seed = v.Seed
	}
	if v.Load != 0 {
		cfg.LoadFactor = v.Load
	}
	sim, err := cell.mk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchMatchesSequential is the tentpole's differential property:
// per-variant stats from one batch must be byte-identical to N
// independent sequential runs, per (mesh/torus × dor/odd-even/
// min-adaptive) cell, across a seed × load variant grid.
func TestBatchMatchesSequential(t *testing.T) {
	variants := []wormhole.Variant{
		{},                          // base lane
		{Seed: 7},                   // reseeded
		{Seed: 123, Load: 0.3},      // light
		{Seed: 123, Load: 0.95},     // near saturation
		{Load: 0.6},                 // base seed, new load
		{Seed: 9999999, Load: 0.05}, // sparse injection
	}
	cfg := wormhole.Config{
		MaxCycles: 3000, BufferDepth: 2, LoadFactor: 0.8, Seed: 1,
		CollectLatencies: true,
	}
	for _, cell := range batchMatrix(t, 4) {
		t.Run(cell.name, func(t *testing.T) {
			b, err := cell.mkBatch(cfg, variants)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(variants) {
				t.Fatalf("got %d lane stats, want %d", len(got), len(variants))
			}
			for i := range variants {
				want := oracleRun(t, cell, cfg, variants[i])
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("variant %d (%+v): batch stats diverge from sequential oracle\nbatch: %+v\noracle: %+v",
						i, variants[i], got[i], want)
				}
			}
		})
	}
}

// TestBatchParallelMatchesSerial pins that lane partitioning is
// invisible: the same batch run with 1 and 4 workers yields identical
// per-lane stats (the variant isolation invariant).
func TestBatchParallelMatchesSerial(t *testing.T) {
	cells := batchMatrix(t, 4)
	cell := cells[1] // mesh/odd-even
	variants := []wormhole.Variant{{Seed: 2}, {Seed: 3}, {Seed: 4, Load: 0.4}, {Seed: 5, Load: 0.9}, {Seed: 6}}
	cfg := wormhole.Config{MaxCycles: 2000, BufferDepth: 2, LoadFactor: 0.7, CollectLatencies: true}
	run := func(parallel int) []*wormhole.Stats {
		b, err := cell.mkBatch(cfg, variants)
		if err != nil {
			t.Fatal(err)
		}
		out, err := b.RunContext(context.Background(), parallel)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, par := run(1), run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel lane partitioning changed results:\nserial: %+v\nparallel: %+v", serial, par)
	}
}

// TestBatchDrainAndRecovery covers the two non-probabilistic run
// endings through the batch path: drain mode (PacketsPerFlow) and
// DISHA recovery on a deadlocking design, both against the oracle.
func TestBatchDrainAndRecovery(t *testing.T) {
	grid, err := regular.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regular.UniformTraffic(16, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  wormhole.Config
	}{
		{"recovery", wormhole.Config{MaxCycles: 8000, LoadFactor: 1.0, BufferDepth: 2, Recovery: true}},
		{"drain", wormhole.Config{MaxCycles: 20000, LoadFactor: 1.0, BufferDepth: 4, PacketsPerFlow: 3, Recovery: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			variants := []wormhole.Variant{{Seed: 5}, {Seed: 21}}
			b, err := wormhole.NewBatch(grid.Topology, g, tab, tc.cfg, variants)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range variants {
				c := tc.cfg
				c.Seed = v.Seed
				sim, err := wormhole.New(grid.Topology, g, tab, c)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s variant %d diverges:\nbatch: %+v\noracle: %+v", tc.name, i, got[i], want)
				}
			}
		})
	}
}

// TestBatchValidation covers construction rejections and variant
// normalization.
func TestBatchValidation(t *testing.T) {
	grid, err := regular.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(9)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MaxCycles: 100}
	if _, err := wormhole.NewBatch(grid.Topology, g, tab, cfg, nil); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("empty variants: got %v, want ErrInvalidInput", err)
	}
	for _, load := range []float64{1.5, -0.5, math.NaN()} {
		if _, err := wormhole.NewBatch(grid.Topology, g, tab, cfg, []wormhole.Variant{{Load: load}}); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("load %v: got %v, want ErrInvalidInput", load, err)
		}
	}
	b, err := wormhole.NewBatch(grid.Topology, g, tab, cfg, []wormhole.Variant{{}, {Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	vs := b.Variants()
	if vs[0].Seed != 1 || vs[0].Load != 0.1 {
		t.Errorf("zero variant not normalized to base defaults: %+v", vs[0])
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
}

// TestBatchCancel pins cancellation semantics: finished lanes keep
// stats, unfinished lanes are nil, and the error wraps ErrCanceled.
func TestBatchCancel(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wormhole.NewBatch(grid.Topology, g, tab, wormhole.Config{MaxCycles: 1 << 40},
		[]wormhole.Variant{{Seed: 1}, {Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := b.RunContext(ctx, 1)
	if !errors.Is(err, nocerr.ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	for i, st := range out {
		if st != nil {
			t.Errorf("lane %d has stats despite pre-canceled context", i)
		}
	}
}

// TestBatchCancelMidRun pins cancellation between lanes: with one
// goroutine the lanes run one after another in index order, so when the
// third lane emits its first epoch the first two have finished and keep
// their stats, while the third stops at its next poll and the fourth
// never starts.
func TestBatchCancelMidRun(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	const canceledLane = 2
	variants := []wormhole.Variant{{Seed: 1}, {Seed: 2}, {Seed: 3}, {Seed: 4}}
	// Lanes outlast the first cancellation poll, at cycle 1024.
	base := wormhole.Config{MaxCycles: 3000, BufferDepth: 2, LoadFactor: 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := base
	cfg.EpochCycles = 100
	started := 0
	cfg.OnEpoch = func(e wormhole.EpochStats) {
		if e.Cycle != cfg.EpochCycles {
			return
		}
		if started++; started == canceledLane+1 {
			cancel()
		}
	}
	b, err := wormhole.NewBatch(grid.Topology, g, tab, cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.RunContext(ctx, 1)
	if !errors.Is(err, nocerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	for i, v := range variants {
		if i >= canceledLane {
			if out[i] != nil {
				t.Errorf("lane %d has stats though it was canceled", i)
			}
			continue
		}
		c := base
		c.Seed = v.Seed
		sim, err := wormhole.New(grid.Topology, g, tab, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("finished lane %d diverges from its independent run\nbatch: %+v\noracle: %+v", i, out[i], want)
		}
	}
}

// FuzzLockstepVariants is the nightly fuzz leg of the batch engine: for
// arbitrary variant counts, seeds and loads, every lane of a batch must
// match its sequential oracle byte for byte, on both the table and
// adaptive engines. Each oracle lane steps through the engine's
// invariants every cycle (flit conservation, one owner per VC, buffer
// bounds), so a run both engines get wrong the same way still fails.
func FuzzLockstepVariants(f *testing.F) {
	grid, err := regular.Mesh(3, 3)
	if err != nil {
		f.Fatal(err)
	}
	g, err := traffic.Transpose(9)
	if err != nil {
		f.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		f.Fatal(err)
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 4)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(3), int64(42), uint8(128), false)
	f.Add(uint8(1), int64(0), uint8(0), true)
	f.Add(uint8(8), int64(-17), uint8(255), true)
	f.Fuzz(func(t *testing.T, nv uint8, seed int64, load uint8, adaptive bool) {
		n := int(nv%8) + 1
		variants := make([]wormhole.Variant, n)
		for i := range variants {
			// Derived, collision-friendly seeds and loads; 0 exercises
			// base-config inheritance.
			variants[i].Seed = seed + int64(i)*7
			variants[i].Load = float64((int(load)+i*37)%101) / 100
		}
		cfg := wormhole.Config{MaxCycles: 1200, BufferDepth: 2, LoadFactor: 0.7, Seed: 9}
		var (
			b    *wormhole.Batch
			berr error
		)
		if adaptive {
			b, berr = wormhole.NewAdaptiveBatch(grid.Topology, g, set, cfg, variants)
		} else {
			b, berr = wormhole.NewBatch(grid.Topology, g, tab, cfg, variants)
		}
		if berr != nil {
			t.Fatal(berr)
		}
		got, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range b.Variants() {
			c := cfg
			c.Seed = v.Seed
			c.LoadFactor = v.Load
			var sim *wormhole.Simulator
			if adaptive {
				sim, err = wormhole.NewAdaptive(grid.Topology, g, set, c)
			} else {
				sim, err = wormhole.New(grid.Topology, g, tab, c)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := wormhole.RunChecked(t, sim); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("variant %d (%+v) diverges from oracle\nbatch: %+v\noracle: %+v", i, v, got[i], want)
			}
		}
	})
}

// torusDOR is mesh_verify's torus design for g: the 8x8 torus under
// dimension-ordered routes, after deadlock removal when removed is set
// (the table as routed is cyclic).
func torusDOR(t *testing.T, g *traffic.Graph, removed bool) (*topology.Topology, *route.Table) {
	t.Helper()
	grid, err := regular.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		return grid.Topology, tab
	}
	res, err := core.Remove(grid.Topology, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Topology, res.Routes
}

// uniformTraffic is mesh_verify's torus traffic: every core sends one
// 100-unit flow to the core 32 ahead.
func uniformTraffic(t *testing.T) *traffic.Graph {
	t.Helper()
	g, err := regular.UniformTraffic(64, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoBandwidthTraffic is uniformTraffic with every odd core's flow at
// half the bandwidth, so no load above 0 saturates every flow.
func twoBandwidthTraffic() *traffic.Graph {
	g := traffic.NewGraph("two_bandwidths")
	for i := 0; i < 64; i++ {
		g.AddCore("")
	}
	for i := 0; i < 64; i++ {
		g.MustAddFlow(traffic.CoreID(i), traffic.CoreID((i+32)%64), float64(100-50*(i%2)))
	}
	return g
}

// seedVariants is one variant per seed in [lo, hi] at load.
func seedVariants(lo, hi int64, load float64) []wormhole.Variant {
	var vs []wormhole.Variant
	for s := lo; s <= hi; s++ {
		vs = append(vs, wormhole.Variant{Seed: s, Load: load})
	}
	return vs
}

// tableOracle runs variant v of cfg as an independent simulator.
func tableOracle(t *testing.T, top *topology.Topology, g *traffic.Graph, tab *route.Table, cfg wormhole.Config, v wormhole.Variant) *wormhole.Stats {
	t.Helper()
	cfg.Seed, cfg.LoadFactor, cfg.OnEpoch = v.Seed, v.Load, nil
	sim, err := wormhole.New(top, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchRunsEachDistinctLaneOnce pins the one-run rule: lanes at one
// load are one run when their seeds are equal, in drain mode, or when no
// flow's injection draw decides anything at that load (every flow of
// equal-bandwidth traffic at load 1). Every lane, run or copied, must
// equal an independent run with its own seed.
func TestBatchRunsEachDistinctLaneOnce(t *testing.T) {
	uniform, twoBW := uniformTraffic(t), twoBandwidthTraffic()
	cfg := wormhole.Config{MaxCycles: 2000, BufferDepth: 2, CollectLatencies: true}
	drain := cfg
	drain.MaxCycles, drain.PacketsPerFlow = 1<<20, 5
	for _, tc := range []struct {
		name string
		g    *traffic.Graph
		cfg  wormhole.Config
		vs   []wormhole.Variant
		runs int
	}{
		{"load 1 seeds 1-4", uniform, cfg, seedVariants(1, 4, 1), 1},
		{"load 0.7 seeds 1-4", uniform, cfg, seedVariants(1, 4, 0.7), 4},
		{"two bandwidths at load 1", twoBW, cfg, seedVariants(1, 4, 1), 4},
		{"drain mode at load 0.7", twoBW, drain, seedVariants(1, 4, 0.7), 1},
		// A -loads axis holding the canonical load repeats each seed's
		// canonical lane.
		{"repeated seed and load", twoBW, cfg, []wormhole.Variant{
			{Seed: 1, Load: 0.7}, {Seed: 1, Load: 0.5}, {Seed: 1, Load: 0.7},
			{Seed: 2, Load: 0.7}, {Seed: 2, Load: 0.5}, {Seed: 2, Load: 0.7},
		}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top, tab := torusDOR(t, tc.g, true)
			b, err := wormhole.NewBatch(top, tc.g, tab, tc.cfg, tc.vs)
			if err != nil {
				t.Fatal(err)
			}
			if b.Runs() != tc.runs {
				t.Errorf("%d of %d lanes run, want %d", b.Runs(), b.Len(), tc.runs)
			}
			got, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range tc.vs {
				if want := tableOracle(t, top, tc.g, tab, tc.cfg, v); !reflect.DeepEqual(got[i], want) {
					t.Errorf("lane %d (%+v) diverges from its independent run\nbatch: %+v\noracle: %+v", i, v, got[i], want)
				}
			}
		})
	}
}

// TestBatchEpochsRunEveryLane pins the rule's exception: with OnEpoch
// set, lanes that would be one run each run and emit their own epochs.
func TestBatchEpochsRunEveryLane(t *testing.T) {
	g := uniformTraffic(t)
	top, tab := torusDOR(t, g, true)
	cfg := wormhole.Config{MaxCycles: 2000, BufferDepth: 2, LoadFactor: 1, EpochCycles: 500}
	var cycles []int64
	cfg.OnEpoch = func(e wormhole.EpochStats) { cycles = append(cycles, e.Cycle) }
	vs := seedVariants(1, 4, 1)
	b, err := wormhole.NewBatch(top, g, tab, cfg, vs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runs() != len(vs) {
		t.Errorf("%d of %d lanes run with OnEpoch set", b.Runs(), len(vs))
	}
	got, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for range vs {
		want = append(want, 500, 1000, 1500, 2000)
	}
	if !slices.Equal(cycles, want) {
		t.Errorf("epochs at cycles %v, want %v", cycles, want)
	}
	for i, v := range vs {
		if w := tableOracle(t, top, g, tab, cfg, v); !reflect.DeepEqual(got[i], w) {
			t.Errorf("lane %d diverges from its independent run", i)
		}
	}
}

// TestBatchCopiesShareNothing pins that a copy lane's stats are a deep
// copy: writing into one lane's slices leaves the other lane's intact.
func TestBatchCopiesShareNothing(t *testing.T) {
	g := uniformTraffic(t)
	for _, removed := range []bool{true, false} {
		top, tab := torusDOR(t, g, removed)
		cfg := wormhole.Config{MaxCycles: 2000, BufferDepth: 2, LoadFactor: 1, CollectLatencies: true}
		vs := seedVariants(1, 2, 1)
		b, err := wormhole.NewBatch(top, g, tab, cfg, vs)
		if err != nil {
			t.Fatal(err)
		}
		if b.Runs() != 1 {
			t.Fatalf("removed=%v: %d lanes run, want 1", removed, b.Runs())
		}
		for _, written := range []int{0, 1} {
			got, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			st := got[written]
			if st.Deadlocked == removed || len(st.PerFlow) == 0 {
				t.Fatalf("removed=%v: deadlocked=%v with %d flows", removed, st.Deadlocked, len(st.PerFlow))
			}
			st.PerFlow[0].Delivered = -1
			if removed {
				st.Latencies[0] = -1
			} else {
				st.DeadlockPackets[0] = -1
			}
			other := 1 - written
			if want := tableOracle(t, top, g, tab, cfg, vs[other]); !reflect.DeepEqual(got[other], want) {
				t.Errorf("removed=%v: writing lane %d's stats changed lane %d's", removed, written, other)
			}
			// A batch is single-use: rebuild it for the next pass.
			if b, err = wormhole.NewBatch(top, g, tab, cfg, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRunBatchesCancelMidRun pins cancellation across batches of one
// RunBatches call. With one goroutine the queue runs batch by batch in
// lane order: the first batch (two runs, two copies) finishes, the
// second batch's lane 1 cancels at its first epoch and stops at the poll
// at cycle 1024, and nothing after it starts. Finished lanes and their
// copies keep their stats, every other lane is nil, and the error is
// lane (1, 1)'s.
func TestRunBatchesCancelMidRun(t *testing.T) {
	g := uniformTraffic(t)
	top, tab := torusDOR(t, g, true)
	base := wormhole.Config{MaxCycles: 3000, BufferDepth: 2, CollectLatencies: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epochCfg := base
	epochCfg.EpochCycles = 100
	started := 0
	epochCfg.OnEpoch = func(e wormhole.EpochStats) {
		if e.Cycle != epochCfg.EpochCycles {
			return
		}
		if started++; started == 2 {
			cancel()
		}
	}
	copies := []wormhole.Variant{{Seed: 1, Load: 1}, {Seed: 1, Load: 0.5}, {Seed: 2, Load: 1}, {Seed: 1, Load: 0.5}}
	specs := []struct {
		cfg      wormhole.Config
		vs       []wormhole.Variant
		finished int // lanes that keep stats
	}{
		{base, copies, 4},
		{epochCfg, seedVariants(1, 3, 0.5), 1},
		{base, copies, 0},
	}
	batches := make([]*wormhole.Batch, len(specs))
	for i, sp := range specs {
		b, err := wormhole.NewBatch(top, g, tab, sp.cfg, sp.vs)
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = b
	}
	out, err := wormhole.RunBatches(ctx, 1, batches...)
	if !errors.Is(err, nocerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "at cycle 1024") {
		t.Errorf("error %q is not that of lane (1, 1), canceled at cycle 1024", err)
	}
	for bi, sp := range specs {
		for i, v := range sp.vs {
			if i >= sp.finished {
				if out[bi][i] != nil {
					t.Errorf("lane (%d, %d) has stats though it did not finish", bi, i)
				}
				continue
			}
			if want := tableOracle(t, top, g, tab, sp.cfg, v); !reflect.DeepEqual(out[bi][i], want) {
				t.Errorf("finished lane (%d, %d) diverges from its independent run", bi, i)
			}
		}
	}
}

// TestRunBatchesParallelMatchesSerial pins that the shared queue is
// invisible in the results: batches whose lanes differ widely in length
// (full-horizon runs, a run that deadlocks early, a short drain) give
// the same stats at parallel 1 to 4, each equal to an independent run.
// The base variant makes the prototype run as a lane while the other
// lanes are carved off it.
func TestRunBatchesParallelMatchesSerial(t *testing.T) {
	g := twoBandwidthTraffic()
	top, tab := torusDOR(t, g, true)
	cyclicTop, cyclicTab := torusDOR(t, uniformTraffic(t), false)
	long := wormhole.Config{MaxCycles: 3000, BufferDepth: 2, LoadFactor: 0.6, CollectLatencies: true}
	drain := wormhole.Config{MaxCycles: 1 << 20, BufferDepth: 2, PacketsPerFlow: 2}
	type spec struct {
		top *topology.Topology
		g   *traffic.Graph
		tab *route.Table
		cfg wormhole.Config
		vs  []wormhole.Variant
	}
	specs := []spec{
		{top, g, tab, long, []wormhole.Variant{{Seed: 3}, {}, {Seed: 2, Load: 0.9}, {Seed: 4, Load: 0.2}}},
		{cyclicTop, uniformTraffic(t), cyclicTab, long, seedVariants(1, 3, 1)},
		{top, g, tab, drain, seedVariants(5, 6, 0)},
	}
	run := func(parallel int) [][]*wormhole.Stats {
		batches := make([]*wormhole.Batch, len(specs))
		for i, sp := range specs {
			b, err := wormhole.NewBatch(sp.top, sp.g, sp.tab, sp.cfg, sp.vs)
			if err != nil {
				t.Fatal(err)
			}
			batches[i] = b
		}
		out, err := wormhole.RunBatches(context.Background(), parallel, batches...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for bi, sp := range specs {
		b, err := wormhole.NewBatch(sp.top, sp.g, sp.tab, sp.cfg, sp.vs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range b.Variants() {
			if want := tableOracle(t, sp.top, sp.g, sp.tab, sp.cfg, v); !reflect.DeepEqual(serial[bi][i], want) {
				t.Errorf("lane (%d, %d) diverges from its independent run", bi, i)
			}
		}
	}
	if !serial[1][0].Deadlocked || serial[2][0].Drained != true {
		t.Fatalf("lanes lost their lengths: cyclic deadlocked=%v, drain drained=%v", serial[1][0].Deadlocked, serial[2][0].Drained)
	}
	for parallel := 2; parallel <= 4; parallel++ {
		if got := run(parallel); !reflect.DeepEqual(got, serial) {
			t.Errorf("parallel %d changed results", parallel)
		}
	}
}

// TestStatsLatenciesMidRun pins that a snapshot's Latencies is
// LatencyCount samples in ascending order, consistent with the counters,
// and a fresh slice that later cycles do not touch.
func TestStatsLatenciesMidRun(t *testing.T) {
	g := uniformTraffic(t)
	top, tab := torusDOR(t, g, true)
	sim, err := wormhole.New(top, g, tab, wormhole.Config{MaxCycles: 4000, BufferDepth: 2, LoadFactor: 0.8, WarmupCycles: 200, CollectLatencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := sim.Stats(); st.Latencies != nil {
		t.Fatalf("latencies %v before any delivery", st.Latencies)
	}
	var prev wormhole.Stats
	var prevLats []int64
	for _, until := range []int64{300, 1500, 3000} {
		for sim.Now() < until {
			sim.Step()
		}
		st := sim.Stats()
		if st.LatencyCount == 0 || int64(len(st.Latencies)) != st.LatencyCount {
			t.Fatalf("cycle %d: %d latencies, LatencyCount %d", until, len(st.Latencies), st.LatencyCount)
		}
		if !slices.IsSorted(st.Latencies) {
			t.Fatalf("cycle %d: latencies not ascending", until)
		}
		var sum int64
		for _, l := range st.Latencies {
			sum += l
		}
		if sum != st.LatencySum || st.Latencies[len(st.Latencies)-1] != st.LatencyMax {
			t.Fatalf("cycle %d: latencies sum to %d with max %d, counters say %d and %d",
				until, sum, st.Latencies[len(st.Latencies)-1], st.LatencySum, st.LatencyMax)
		}
		if prev.LatencyCount > 0 && !slices.Equal(prev.Latencies, prevLats) {
			t.Fatalf("cycle %d: the previous snapshot's latencies changed", until)
		}
		prev, prevLats = st, slices.Clone(st.Latencies)
	}
}
