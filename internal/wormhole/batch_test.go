package wormhole_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
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
			sres, err := core.RemoveSet(grid.Topology, set, core.Options{})
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

// FuzzLockstepVariants is the nightly fuzz leg of the tentpole's
// invariant: for arbitrary variant counts, seeds and loads, every lane
// of a batch must match its sequential oracle byte for byte, on both
// the table and adaptive engines.
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
			want, serr := sim.Run()
			if serr != nil {
				t.Fatal(serr)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("variant %d (%+v) diverges from oracle\nbatch: %+v\noracle: %+v", i, v, got[i], want)
			}
		}
	})
}
