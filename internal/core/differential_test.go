package core

import (
	"fmt"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/traffic"
)

// assertSameRemoval runs Remove with and without FullRebuild on identical
// inputs and requires byte-for-byte identical break sequences plus a
// verified acyclic result from both paths.
func assertSameRemoval(t *testing.T, name string, opts Options, run func(Options) (*Result, error)) {
	t.Helper()
	optsFull := opts
	optsFull.FullRebuild = true
	inc, err := run(opts)
	if err != nil {
		t.Fatalf("%s: incremental Remove: %v", name, err)
	}
	full, err := run(optsFull)
	if err != nil {
		t.Fatalf("%s: full-rebuild Remove: %v", name, err)
	}
	if inc.AddedVCs != full.AddedVCs || inc.Iterations != full.Iterations {
		t.Fatalf("%s: incremental %d VCs / %d breaks, full rebuild %d VCs / %d breaks",
			name, inc.AddedVCs, inc.Iterations, full.AddedVCs, full.Iterations)
	}
	for i := range inc.Breaks {
		a, b := inc.Breaks[i], full.Breaks[i]
		if a.EdgePos != b.EdgePos || a.Direction != b.Direction || a.Cost != b.Cost ||
			len(a.Cycle) != len(b.Cycle) || len(a.NewChannels) != len(b.NewChannels) {
			t.Fatalf("%s: break %d differs: incremental %+v, full rebuild %+v", name, i, a, b)
		}
		for j := range a.Cycle {
			if a.Cycle[j] != b.Cycle[j] {
				t.Fatalf("%s: break %d cycle differs at %d: %v vs %v", name, i, j, a.Cycle, b.Cycle)
			}
		}
	}
	if err := inc.Verify(); err != nil {
		t.Fatalf("%s: incremental result: %v", name, err)
	}
	if err := full.Verify(); err != nil {
		t.Fatalf("%s: full-rebuild result: %v", name, err)
	}
}

// TestIncrementalMatchesFullRebuildBenchmarks is the differential check
// over the paper's six benchmarks across several switch counts: the
// incremental Remove must reproduce the full-rebuild Remove exactly.
func TestIncrementalMatchesFullRebuildBenchmarks(t *testing.T) {
	for _, g := range traffic.AllBenchmarks() {
		for _, switches := range []int{8, 11, 14, 20} {
			if switches > g.NumCores() {
				continue
			}
			des, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
			if err != nil {
				t.Fatalf("synthesize %s @ %d: %v", g.Name, switches, err)
			}
			name := g.Name
			assertSameRemoval(t, name, Options{}, func(o Options) (*Result, error) {
				return Remove(des.Topology, des.Routes, o)
			})
		}
	}
}

// namedDesign is one synthesized design a test runs removal on.
type namedDesign struct {
	name string
	des  *synth.Result
}

// scaleDesigns synthesizes designs with one large strongly connected
// component, where the cycle search skips most members on their
// cycle-length bounds: the removal_scale designs (rand:128x6 at 48
// switches, seeds 0–3) and a 64-core design at 24 switches.
func scaleDesigns(t *testing.T) []namedDesign {
	t.Helper()
	cases := []struct {
		cores, switches int
		seed            int64
	}{
		{128, 48, 0}, {128, 48, 1}, {128, 48, 2}, {128, 48, 3},
		{64, 24, 99},
	}
	var out []namedDesign
	for _, c := range cases {
		name := fmt.Sprintf("rand:%dx6#%d@%d", c.cores, c.seed, c.switches)
		g := traffic.RandomKOut(name, c.cores, 6, c.seed)
		des, err := synth.Synthesize(g, synth.Options{SwitchCount: c.switches})
		if err != nil {
			t.Fatalf("synthesize %s: %v", name, err)
		}
		out = append(out, namedDesign{name, des})
	}
	return out
}

// TestIncrementalMatchesFullRebuildAtScale runs the differential check on
// the scale designs.
func TestIncrementalMatchesFullRebuildAtScale(t *testing.T) {
	for _, d := range scaleDesigns(t) {
		assertSameRemoval(t, d.name, Options{}, func(o Options) (*Result, error) {
			return Remove(d.des.Topology, d.des.Routes, o)
		})
	}
}

// TestIncrementalMatchesFullRebuildPolicies covers the non-default
// direction and selection policies on random inputs.
func TestIncrementalMatchesFullRebuildPolicies(t *testing.T) {
	policies := []Options{
		{},
		{Policy: ForwardOnly},
		{Policy: BackwardOnly},
		{Selection: FirstFound},
	}
	for seed := int64(1); seed <= 8; seed++ {
		top, _, tab := randomSetup(seed, 12, 60)
		for _, opts := range policies {
			assertSameRemoval(t, "random", opts, func(o Options) (*Result, error) {
				return Remove(top, tab, o)
			})
		}
	}
}

// FuzzRemoveMatchesFullRebuild drives the whole break loop on random
// designs: under every direction policy and cycle selection, the
// incremental removal must reproduce the full-rebuild one break for
// break.
func FuzzRemoveMatchesFullRebuild(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(60), byte(0))
	f.Add(int64(2), uint8(8), uint8(40), byte(1))
	f.Add(int64(3), uint8(10), uint8(50), byte(2))
	f.Add(int64(4), uint8(12), uint8(60), byte(3))
	f.Add(int64(5), uint8(14), uint8(80), byte(5))
	f.Fuzz(func(t *testing.T, seed int64, switches, flows uint8, mode byte) {
		nSwitch := 2 + int(switches)%15 // bounds per-exec work
		nFlow := int(flows) % 100
		opts := Options{Policy: DirectionPolicy(mode % 3), Selection: CycleSelection(mode / 3 % 2)}
		top, _, tab := randomSetup(seed, nSwitch, nFlow)
		name := fmt.Sprintf("seed %d, %d switches, %d flows, %+v", seed, nSwitch, nFlow, opts)
		assertSameRemoval(t, name, opts, func(o Options) (*Result, error) {
			return Remove(top, tab, o)
		})
	})
}

// TestIncrementalCDGTracksRebuild pins the maintained CDG itself: after
// every break the Incremental edge set (with per-edge flow lists) must be
// identical to a CDG rebuilt from scratch.
func TestIncrementalCDGTracksRebuild(t *testing.T) {
	top, _, tab := randomSetup(99, 10, 50)
	res := &Result{Topology: top.Clone(), Routes: tab.Clone()}
	m, err := cdg.BuildIncremental(res.Topology, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; ; iter++ {
		rebuilt, err := cdg.Build(res.Topology, res.Routes)
		if err != nil {
			t.Fatal(err)
		}
		want := rebuilt.Dependencies()
		got := m.Dependencies()
		if len(got) != len(want) {
			t.Fatalf("iteration %d: incremental has %d deps, rebuild %d", iter, len(got), len(want))
		}
		for i := range want {
			if got[i].From != want[i].From || got[i].To != want[i].To {
				t.Fatalf("iteration %d dep %d: incremental %v→%v, rebuild %v→%v",
					iter, i, got[i].From, got[i].To, want[i].From, want[i].To)
			}
			if len(got[i].Flows) != len(want[i].Flows) {
				t.Fatalf("iteration %d dep %d: flow lists differ: %v vs %v",
					iter, i, got[i].Flows, want[i].Flows)
			}
			for j := range want[i].Flows {
				if got[i].Flows[j] != want[i].Flows[j] {
					t.Fatalf("iteration %d dep %d: flow lists differ: %v vs %v",
						iter, i, got[i].Flows, want[i].Flows)
				}
			}
		}
		cycle := m.SmallestCycle()
		wantCycle := rebuilt.SmallestCycle()
		if len(cycle) != len(wantCycle) {
			t.Fatalf("iteration %d: incremental cycle %v, rebuild cycle %v", iter, cycle, wantCycle)
		}
		for i := range wantCycle {
			if cycle[i] != wantCycle[i] {
				t.Fatalf("iteration %d: incremental cycle %v, rebuild cycle %v", iter, cycle, wantCycle)
			}
		}
		if cycle == nil {
			break
		}
		if err := res.applyBreak(cycle, Options{}, m); err != nil {
			t.Fatal(err)
		}
		if iter > DefaultMaxIterations {
			t.Fatal("removal did not converge")
		}
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}
