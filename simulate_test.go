package nocdr

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

// simWorkload is a removed (deadlock-free) 4x4 torus design the
// simulation-API tests run on.
func simWorkload(t *testing.T) (*Topology, *TrafficGraph, *RouteTable) {
	t.Helper()
	top, g, tab := torusWorkload(t)
	res, err := NewSession().RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	return res.Topology, g, res.Routes
}

// TestSimulateIsBatchOfOne pins the PR's wrapper refactor: Simulate must
// stay byte-identical to SimulateBatch with a bare Base spec, and both
// to the pre-batch engine path (NewSimulator + RunContext).
func TestSimulateIsBatchOfOne(t *testing.T) {
	top, g, tab := simWorkload(t)
	cfg := SimConfig{MaxCycles: 3000, LoadFactor: 0.4, Seed: 11, CollectLatencies: true}
	s := NewSession()
	single, err := s.Simulate(context.Background(), top, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := s.SimulateBatch(context.Background(), top, g, tab, SimSpec{Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs.Variants) != 1 {
		t.Fatalf("bare spec produced %d variants, want 1", len(bs.Variants))
	}
	if v := bs.Variants[0]; v.Seed != 11 || v.Load != 0.4 {
		t.Errorf("variant tag not normalized to base: %+v", v)
	}
	if !reflect.DeepEqual(single, bs.Variants[0].Stats) {
		t.Errorf("Simulate diverges from batch-of-one:\n%+v\nvs\n%+v", single, bs.Variants[0].Stats)
	}
	sim, err := s.NewSimulator(top, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, direct) {
		t.Errorf("Simulate diverges from the direct engine path:\n%+v\nvs\n%+v", single, direct)
	}
}

// TestSimulateBatchCrossProduct pins variant expansion order (seed-major
// over Seeds × Loads) and per-variant equality with independent
// Simulate calls.
func TestSimulateBatchCrossProduct(t *testing.T) {
	top, g, tab := simWorkload(t)
	base := SimConfig{MaxCycles: 4000, LoadFactor: 0.5, CollectLatencies: true}
	spec := SimSpec{
		Seeds:  []int64{3, 9},
		Loads:  []float64{0.2, 0.8},
		Cycles: 2000, // overrides Base.MaxCycles
		Base:   base,
	}
	s := NewSession(WithParallel(3))
	bs, err := s.SimulateBatch(context.Background(), top, g, tab, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []SimVariant{
		{Seed: 3, Load: 0.2}, {Seed: 3, Load: 0.8},
		{Seed: 9, Load: 0.2}, {Seed: 9, Load: 0.8},
	}
	if len(bs.Variants) != len(want) {
		t.Fatalf("got %d variants, want %d", len(bs.Variants), len(want))
	}
	for i, v := range bs.Variants {
		if v.Seed != want[i].Seed || v.Load != want[i].Load {
			t.Errorf("variant %d = (%d, %v), want (%d, %v)", i, v.Seed, v.Load, want[i].Seed, want[i].Load)
		}
		cfg := base
		cfg.MaxCycles = 2000
		cfg.Seed = v.Seed
		cfg.LoadFactor = v.Load
		oracle, err := NewSession().Simulate(context.Background(), top, g, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Stats, oracle) {
			t.Errorf("variant %d diverges from independent Simulate:\n%+v\nvs\n%+v", i, v.Stats, oracle)
		}
	}
}

// TestSimulateBatchEpochFeed checks that lanes stream EventSimEpoch to
// the Session's progress feed, like Simulate always has.
func TestSimulateBatchEpochFeed(t *testing.T) {
	top, g, tab := simWorkload(t)
	var epochs atomic.Int64
	s := NewSession(WithProgress(func(e Event) {
		if e.Kind == EventSimEpoch {
			epochs.Add(1)
		}
	}))
	_, err := s.SimulateBatch(context.Background(), top, g, tab, SimSpec{
		Seeds: []int64{1, 2},
		Base:  SimConfig{MaxCycles: 3000, LoadFactor: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two lanes, 3000 cycles, DefaultEpochCycles=1000 → 2 lanes × ≥2 epochs.
	if n := epochs.Load(); n < 4 {
		t.Errorf("expected ≥4 epoch events across 2 lanes, got %d", n)
	}
}

// TestSimulateBatchCancel pins the error contract on cancellation.
func TestSimulateBatchCancel(t *testing.T) {
	top, g, tab := simWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSession().SimulateBatch(ctx, top, g, tab, SimSpec{
		Seeds: []int64{1, 2},
		Base:  SimConfig{MaxCycles: 1 << 40, LoadFactor: 0.3},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestSimulateBatchRejectsBadSpec covers input validation through the
// public surface: a load out of range, and more lanes than the 4,096 one
// batch may run.
func TestSimulateBatchRejectsBadSpec(t *testing.T) {
	top, g, tab := simWorkload(t)
	seeds, loads := make([]int64, 65), make([]float64, 64)
	for i := range loads {
		loads[i] = float64(i+1) / float64(len(loads))
	}
	s := NewSession()
	for _, c := range []struct {
		name string
		spec SimSpec
	}{
		{"load 2.0", SimSpec{Loads: []float64{2.0}, Base: SimConfig{MaxCycles: 100}}},
		{"65 × 64 lanes", SimSpec{Seeds: seeds, Loads: loads, Base: SimConfig{MaxCycles: 100}}},
	} {
		if _, err := s.SimulateBatch(context.Background(), top, g, tab, c.spec); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: SimulateBatch: got %v, want ErrInvalidInput", c.name, err)
		}
		if _, err := s.NewSimBatch(top, g, tab, c.spec); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: NewSimBatch: got %v, want ErrInvalidInput", c.name, err)
		}
	}
}
