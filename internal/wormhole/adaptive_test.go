package wormhole_test

import (
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

func meshTranspose(t *testing.T, n int) (*regular.Grid, *traffic.Graph) {
	t.Helper()
	grid, err := regular.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(n * n)
	if err != nil {
		t.Fatal(err)
	}
	return grid, g
}

// meshAllToAll pairs an n x n mesh with one flow per ordered core pair —
// the workload whose min-adaptive union CDG is pinned cyclic on ≥4x4
// meshes by the route package's turn-model tests (transpose sets happen
// to come out acyclic there, so they cannot serve as negative controls).
func meshAllToAll(t *testing.T, n int) (*regular.Grid, *traffic.Graph) {
	t.Helper()
	grid, err := regular.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGraph("all2all")
	for i := 0; i < n*n; i++ {
		g.AddCore("")
	}
	for s := 0; s < n*n; s++ {
		for d := 0; d < n*n; d++ {
			if s != d {
				g.MustAddFlow(traffic.CoreID(s), traffic.CoreID(d), 10)
			}
		}
	}
	return grid, g
}

// TestAdaptiveTurnModelDelivers runs the adaptive engine on each turn
// model's route set (deadlock-free by construction) at saturation and
// checks packets flow and no deadlock is reported, under both selection
// policies.
func TestAdaptiveTurnModelDelivers(t *testing.T) {
	grid, g := meshTranspose(t, 4)
	for _, model := range []route.TurnModel{route.WestFirst, route.NorthLast, route.NegativeFirst, route.OddEven} {
		set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []wormhole.AdaptiveSelection{wormhole.FirstFree, wormhole.LeastCongested} {
			sim, err := wormhole.NewAdaptive(grid.Topology, g, set, wormhole.Config{
				MaxCycles: 20000, LoadFactor: 1.0, BufferDepth: 2, Seed: 7, Adaptive: sel,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", model, sel, err)
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.Deadlocked {
				t.Errorf("%s/%s: deadlock at cycle %d on a deadlock-free turn model", model, sel, st.DeadlockCycle)
			}
			if st.DeliveredPackets == 0 {
				t.Errorf("%s/%s: nothing delivered", model, sel)
			}
		}
	}
}

// TestAdaptiveDeterministic pins that two identically-seeded adaptive
// runs produce identical statistics.
func TestAdaptiveDeterministic(t *testing.T) {
	grid, g := meshTranspose(t, 4)
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *wormhole.Stats {
		sim, err := wormhole.NewAdaptive(grid.Topology, g, set, wormhole.Config{
			MaxCycles: 5000, LoadFactor: 0.8, BufferDepth: 2, Seed: 42,
			Adaptive: wormhole.LeastCongested, CollectLatencies: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identically-seeded adaptive runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestAdaptiveMinimalDeadlocksAndRemovalRepairs is the paper's story on
// the adaptive engine: fully-adaptive minimal routing on a mesh has a
// cyclic union CDG and deadlocks under saturated long-packet traffic;
// after RemoveSet the same workload on the repaired design never does.
func TestAdaptiveMinimalDeadlocksAndRemovalRepairs(t *testing.T) {
	grid, g := meshAllToAll(t, 4)
	// Long worms make the cycle's holdings interlock.
	for _, f := range g.Flows() {
		if err := g.SetPacketFlits(f.ID, 16); err != nil {
			t.Fatal(err)
		}
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.MinimalAdaptive, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MaxCycles: 20000, LoadFactor: 1.0, BufferDepth: 1, Seed: 3}

	deadlocked := false
	for seed := int64(1); seed <= 5 && !deadlocked; seed++ {
		cfg.Seed = seed
		sim, err := wormhole.NewAdaptive(grid.Topology, g, set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		deadlocked = st.Deadlocked
		if st.Deadlocked && len(st.DeadlockPackets) == 0 {
			t.Fatal("deadlock confirmed but wait-for cycle empty")
		}
	}
	if !deadlocked {
		// Deterministic seeds: this fixture deadlocks today, and a cyclic
		// union CDG plus saturated long worms is exactly the adversarial
		// setting the removal method exists for.
		t.Fatal("min-adaptive all-to-all saturation did not deadlock in 5 seeds — negative control lost")
	}

	res, err := core.RemoveSet(grid.Topology, set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg.Seed = seed
		sim, err := wormhole.NewAdaptive(res.Topology, g, res.Routes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Deadlocked {
			t.Fatalf("seed %d: post-removal adaptive design deadlocked at cycle %d", seed, st.DeadlockCycle)
		}
		if st.DeliveredPackets == 0 {
			t.Fatalf("seed %d: post-removal design delivered nothing", seed)
		}
	}
}

// TestAdaptiveSinglePathMatchesTableEngine pins that the adaptive engine
// degenerates exactly to the table engine on a single-path set: same
// per-cycle moves, hence identical final statistics.
func TestAdaptiveSinglePathMatchesTableEngine(t *testing.T) {
	grid, err := regular.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regular.UniformTraffic(16, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormhole.Config{MaxCycles: 5000, LoadFactor: 0.7, BufferDepth: 2, Seed: 11, CollectLatencies: true}
	tabSim, err := wormhole.New(grid.Topology, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setSim, err := wormhole.NewAdaptive(grid.Topology, g, route.FromTable(tab), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := tabSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := setSim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("single-path adaptive run diverged from table engine:\ntable: %+v\nadaptive: %+v", a, b)
	}
}

// TestReferenceFieldIgnored pins the deprecated Config.Reference as a
// no-op on both engines: a run with it set is identical to one without.
func TestReferenceFieldIgnored(t *testing.T) {
	grid, g := meshTranspose(t, 3)
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.WestFirst, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]func(wormhole.Config) (*wormhole.Simulator, error){
		"table": func(cfg wormhole.Config) (*wormhole.Simulator, error) {
			return wormhole.New(grid.Topology, g, tab, cfg)
		},
		"adaptive": func(cfg wormhole.Config) (*wormhole.Simulator, error) {
			return wormhole.NewAdaptive(grid.Topology, g, set, cfg)
		},
	}
	for name, mk := range engines {
		var outcomes [2]*wormhole.Stats
		for i, reference := range []bool{false, true} {
			sim, err := mk(wormhole.Config{MaxCycles: 2000, LoadFactor: 0.6, Seed: 4, Reference: reference})
			if err != nil {
				t.Fatalf("%s, Reference=%v: %v", name, reference, err)
			}
			if outcomes[i], err = sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
			t.Errorf("%s: Reference changed the run:\nwithout: %+v\nwith:    %+v", name, outcomes[0], outcomes[1])
		}
	}
}

// TestAdaptiveFaultedSetSimulates drives the full fault story through
// the simulator: faulted mesh, regenerated min-adaptive set, removal,
// saturated run with zero deadlocks.
func TestAdaptiveFaultedSetSimulates(t *testing.T) {
	grid, g := meshTranspose(t, 4)
	ids, err := regular.SelectFaults(grid, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Topology.Fault(ids...); err != nil {
		t.Fatal(err)
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.MinimalAdaptive, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RemoveSet(grid.Topology, set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wormhole.NewAdaptive(res.Topology, g, res.Routes, wormhole.Config{
		MaxCycles: 20000, LoadFactor: 1.0, BufferDepth: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatalf("faulted post-removal design deadlocked at cycle %d", st.DeadlockCycle)
	}
	if st.DeliveredPackets == 0 {
		t.Fatal("faulted post-removal design delivered nothing")
	}
}

// TestParseAdaptiveSelection covers the CLI spellings.
func TestParseAdaptiveSelection(t *testing.T) {
	for _, name := range []string{"first-free", "least-congested"} {
		sel, err := wormhole.ParseAdaptiveSelection(name)
		if err != nil {
			t.Fatal(err)
		}
		if sel.String() != name {
			t.Errorf("round trip %q → %q", name, sel.String())
		}
	}
	if _, err := wormhole.ParseAdaptiveSelection("nope"); err == nil {
		t.Error("bad selection accepted")
	}
}
