package nocdr_test

// One benchmark per paper artifact (see DESIGN.md's per-experiment
// index). Each removal/ordering benchmark re-runs the full algorithm on a
// pre-synthesized design and reports the added VCs as a custom metric, so
// `go test -bench=.` regenerates both the runtime claim (E10: "runs
// within minutes even for the largest benchmark" — here microseconds to
// milliseconds) and the headline resource numbers. Ablation benchmarks
// cover the design choices DESIGN.md calls out.

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/bench"
	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/reconfig"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/serve"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/updown"
)

// design synthesizes a benchmark design once, outside the timed loop.
func design(b *testing.B, name string, switches int) *synth.Result {
	b.Helper()
	g, err := traffic.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
	if err != nil {
		b.Fatal(err)
	}
	return des
}

func benchRemoval(b *testing.B, name string, switches int) {
	des := design(b, name, switches)
	b.ReportAllocs()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := core.Remove(des.Topology, des.Routes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

func benchOrdering(b *testing.B, name string, switches int) {
	des := design(b, name, switches)
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := ordering.Apply(des.Topology, des.Routes, ordering.HopIndex)
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

// --- E4: Figure 8 (D26_media sweep; the 25-switch point is the extreme
// x-position of the figure, the full curve comes from cmd/nocexp). ---

func BenchmarkFig8_D26MediaRemoval(b *testing.B)          { benchRemoval(b, "D26_media", 25) }
func BenchmarkFig8_D26MediaResourceOrdering(b *testing.B) { benchOrdering(b, "D26_media", 25) }

// --- E5: Figure 9 (D36_8 sweep, extreme point 35 switches). ---

func BenchmarkFig9_D36_8Removal(b *testing.B)          { benchRemoval(b, "D36_8", 35) }
func BenchmarkFig9_D36_8ResourceOrdering(b *testing.B) { benchOrdering(b, "D36_8", 35) }

// --- E6: Figure 10 (power/area at 14 switches over all six benchmarks). ---

func BenchmarkFig10_PowerComparison(b *testing.B) {
	var rows []bench.PowerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		// Mean normalized ordering power (Figure 10's bar height).
		total := 0.0
		for _, r := range rows {
			total += r.NormalizedOrderingPower()
		}
		b.ReportMetric(total/float64(len(rows)), "normPower")
	}
}

// --- E2: Table 1 (forward cost table on the running example). ---

func BenchmarkTable1_CostTable(b *testing.B) {
	top, _, tab := buildRing()
	g, err := nocdr.NewSession().BuildCDG(top, tab)
	if err != nil {
		b.Fatal(err)
	}
	cycle := g.SmallestCycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nocdr.NewSession().CostTable(nocdr.Forward, cycle, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7–E9: Section 5 scalar claims. ---

func BenchmarkSummary_SectionFiveClaims(b *testing.B) {
	var sum bench.Summary
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		var sweeps [][]bench.SweepPoint
		for _, g := range traffic.AllBenchmarks() {
			sweep, err := bench.VCSweep(g, []int{8, 14, 20})
			if err != nil {
				b.Fatal(err)
			}
			sweeps = append(sweeps, sweep)
		}
		sum = bench.Summarize(rows, sweeps...)
	}
	b.ReportMetric(100*sum.AvgVCReduction, "%VCreduction")
	b.ReportMetric(100*sum.AvgAreaSaving, "%areaSaving")
	b.ReportMetric(100*sum.AvgPowerSaving, "%powerSaving")
}

// --- E10: removal runtime per benchmark at the Figure 10 design point
// (the paper: "the method runs within minutes even for the largest
// benchmark"). ---

func BenchmarkRemoval_D26Media(b *testing.B) { benchRemoval(b, "D26_media", 14) }
func BenchmarkRemoval_D36_4(b *testing.B)    { benchRemoval(b, "D36_4", 14) }
func BenchmarkRemoval_D36_6(b *testing.B)    { benchRemoval(b, "D36_6", 14) }
func BenchmarkRemoval_D36_8(b *testing.B)    { benchRemoval(b, "D36_8", 14) }
func BenchmarkRemoval_D35Bot(b *testing.B)   { benchRemoval(b, "D35_bot", 14) }
func BenchmarkRemoval_D38TVO(b *testing.B)   { benchRemoval(b, "D38_tvo", 14) }

// --- Simulator hot loop: steady-state Step cost on the six paper
// benchmarks after removal. The perf-regression CI job pins
// BenchmarkSimStep with benchstat; internal/wormhole's
// BenchmarkSimStepMapBaseline steps the same workload through the seed
// engine's map-based arbitration, the test oracle. ---

func benchSimStep(b *testing.B, name string) {
	g, err := traffic.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
	if err != nil {
		b.Fatal(err)
	}
	rm, err := nocdr.NewSession().RemoveDeadlocks(context.Background(), des.Topology, des.Routes)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := nocdr.NewSession().NewSimulator(rm.Topology, g, rm.Routes, nocdr.SimConfig{
		MaxCycles:  1 << 62,
		LoadFactor: 0.1,
		Seed:       11,
	})
	stepWarm(b, sim, err)
}

// stepWarm times steady-state Step on a just-built simulator: it warms
// the network for 2,000 cycles, then steps b.N cycles with allocations
// reported. err is the constructor's.
func stepWarm(b *testing.B, sim *nocdr.Simulator, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkSimStep(b *testing.B) {
	for _, name := range traffic.BenchmarkNames() {
		b.Run(name, func(b *testing.B) { benchSimStep(b, name) })
	}
}

// BenchmarkSimStepAdaptive is BenchmarkSimStep's adaptive twin: steady-
// state Step cost of the route-set engine on a faulted 8x8 mesh under
// odd-even routing at load 1, the regime mesh_verify's measurement lanes
// run in — pending heads choosing among candidates, deep queues and
// contended links every cycle.
func BenchmarkSimStepAdaptive(b *testing.B) {
	grid, err := regular.Mesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	ids, err := regular.SelectFaults(grid, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := grid.Topology.Fault(ids...); err != nil {
		b.Fatal(err)
	}
	g, err := regular.UniformTraffic(64, 32, 100)
	if err != nil {
		b.Fatal(err)
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := nocdr.NewSession()
	rm, err := s.RemoveDeadlocksSet(context.Background(), grid.Topology, set)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := s.NewAdaptiveSimulator(rm.Topology, g, rm.Routes, nocdr.SimConfig{
		MaxCycles:   1 << 62,
		LoadFactor:  1,
		BufferDepth: 2,
		Seed:        11,
	})
	stepWarm(b, sim, err)
}

// torusDOR is mesh_verify's torus design: the 8x8 torus under uniform
// traffic and DOR routes, as routed (cyclic) and after removal.
func torusDOR(b *testing.B) (g *nocdr.TrafficGraph, top *nocdr.Topology, tab *nocdr.RouteTable, rm *nocdr.RemovalResult) {
	b.Helper()
	grid, err := regular.Torus(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	if g, err = regular.UniformTraffic(64, 32, 100); err != nil {
		b.Fatal(err)
	}
	if tab, err = regular.DORRoutes(grid, g); err != nil {
		b.Fatal(err)
	}
	if rm, err = nocdr.NewSession().RemoveDeadlocks(context.Background(), grid.Topology, tab); err != nil {
		b.Fatal(err)
	}
	return g, grid.Topology, tab, rm
}

// BenchmarkSimStepTorus is the route-table engine at saturation, which
// BenchmarkSimStep (load 0.1) does not reach: steady-state Step cost of
// mesh_verify's torus measurement lane, the 8x8 torus under uniform
// traffic and DOR routes after removal, at load 1 with two-flit buffers.
func BenchmarkSimStepTorus(b *testing.B) {
	g, _, _, rm := torusDOR(b)
	sim, err := nocdr.NewSession().NewSimulator(rm.Topology, g, rm.Routes, nocdr.SimConfig{
		MaxCycles:   1 << 62,
		LoadFactor:  1,
		BufferDepth: 2,
		Seed:        11,
	})
	stepWarm(b, sim, err)
}

// BenchmarkDeadlockFree_Acyclic is the yes/no deadlock check that
// `nocdr check`, served removals and reconfiguration design checks make,
// on the removed torus design. With BenchmarkDeadlockFree_Cyclic, the
// torus as routed, it is the pair any shortcut for acyclic inputs (such
// as asking cdg.ProveAcyclic before building the CDG) must hold: faster
// on this row without slowing the cyclic one.
func BenchmarkDeadlockFree_Acyclic(b *testing.B) {
	_, _, _, rm := torusDOR(b)
	benchDeadlockFree(b, rm.Topology, rm.Routes, true)
}

// BenchmarkDeadlockFree_Cyclic is the same check on the torus design as
// routed, whose CDG is cyclic.
func BenchmarkDeadlockFree_Cyclic(b *testing.B) {
	_, top, tab, _ := torusDOR(b)
	benchDeadlockFree(b, top, tab, false)
}

func benchDeadlockFree(b *testing.B, top *nocdr.Topology, tab *nocdr.RouteTable, want bool) {
	s := nocdr.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		free, err := s.DeadlockFree(top, tab)
		if err != nil || free != want {
			b.Fatalf("deadlock-free = %v, %v; want %v", free, err, want)
		}
	}
}

// --- E11: simulation validation (cycles simulated per second, and the
// deadlock outcome as a metric: 1 = deadlocked). ---

func BenchmarkSimulation_RingSaturation(b *testing.B) {
	top, g, tab := buildRing()
	var deadlocked float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := nocdr.NewSession().Simulate(context.Background(), top, g, tab, nocdr.SimConfig{
			MaxCycles:  20000,
			LoadFactor: 1.0,
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Deadlocked {
			deadlocked = 1
		}
	}
	b.ReportMetric(deadlocked, "deadlocked")
}

func BenchmarkSimulation_RingAfterRemoval(b *testing.B) {
	top, g, tab := buildRing()
	res, err := nocdr.NewSession().RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		b.Fatal(err)
	}
	var deadlocked float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := nocdr.NewSession().Simulate(context.Background(), res.Topology, g, res.Routes, nocdr.SimConfig{
			MaxCycles:  20000,
			LoadFactor: 1.0,
			Seed:       7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Deadlocked {
			deadlocked = 1
		}
	}
	b.ReportMetric(deadlocked, "deadlocked")
}

// --- Ablations (DESIGN.md §6). ---

func benchAblationRemoval(b *testing.B, opts core.Options) {
	des := design(b, "D36_8", 22)
	b.ReportAllocs()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := core.Remove(des.Topology, des.Routes, opts)
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

func BenchmarkAblation_DirectionBestOfBoth(b *testing.B) {
	benchAblationRemoval(b, core.Options{Policy: core.BestOfBoth})
}
func BenchmarkAblation_DirectionForwardOnly(b *testing.B) {
	benchAblationRemoval(b, core.Options{Policy: core.ForwardOnly})
}
func BenchmarkAblation_DirectionBackwardOnly(b *testing.B) {
	benchAblationRemoval(b, core.Options{Policy: core.BackwardOnly})
}
func BenchmarkAblation_CycleSmallestFirst(b *testing.B) {
	benchAblationRemoval(b, core.Options{Selection: core.SmallestFirst})
}
func BenchmarkAblation_CycleFirstFound(b *testing.B) {
	benchAblationRemoval(b, core.Options{Selection: core.FirstFound})
}

func benchAblationOrdering(b *testing.B, scheme ordering.Scheme) {
	des := design(b, "D36_8", 22)
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := ordering.Apply(des.Topology, des.Routes, scheme)
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

func BenchmarkAblation_OrderingHopIndex(b *testing.B) {
	benchAblationOrdering(b, ordering.HopIndex)
}
func BenchmarkAblation_OrderingGreedyBFS(b *testing.B) {
	benchAblationOrdering(b, ordering.GreedyBFS)
}
func BenchmarkAblation_OrderingGreedyByID(b *testing.B) {
	benchAblationOrdering(b, ordering.GreedyByID)
}

// --- Scaling: removal runtime vs problem size (supports the paper's
// "scalable" claim beyond its largest benchmark). ---

func benchScale(b *testing.B, cores, fanout, switches int) {
	g := traffic.RandomKOut("scale", cores, fanout, 99)
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Remove(des.Topology, des.Routes, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScale_64Cores(b *testing.B)  { benchScale(b, 64, 6, 24) }
func BenchmarkScale_128Cores(b *testing.B) { benchScale(b, 128, 6, 48) }
func BenchmarkScale_256Cores(b *testing.B) { benchScale(b, 256, 6, 96) }

// --- Remove on a 35-switch paper design and on large random designs:
// the break loop's hot path (incremental CDG upkeep and cycle search).
// The metric of interest is ns/op. ---

func benchRemovalMode(b *testing.B, name string, switches int) {
	des := design(b, name, switches)
	b.ReportAllocs()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := core.Remove(des.Topology, des.Routes, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

func BenchmarkRemoveIncremental_D36_8_35sw(b *testing.B) { benchRemovalMode(b, "D36_8", 35) }

func benchScaleMode(b *testing.B, cores, fanout, switches int) {
	g := traffic.RandomKOut("scale", cores, fanout, 99)
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Remove(des.Topology, des.Routes, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoveIncremental_128Cores(b *testing.B) { benchScaleMode(b, 128, 6, 48) }
func BenchmarkRemoveIncremental_256Cores(b *testing.B) { benchScaleMode(b, 256, 6, 96) }

// --- Synthesis: partition, link construction and load-aware routing of
// one design, the stage that dominates the paper's design loop. ---

func benchSynthesize(b *testing.B, g *traffic.Graph, switches int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(g, synth.Options{SwitchCount: switches}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthesize_128Cores(b *testing.B) {
	benchSynthesize(b, traffic.RandomKOut("scale", 128, 6, 99), 48)
}

func BenchmarkSynthesize_D36_8_35sw(b *testing.B) {
	g, err := traffic.ByName("D36_8")
	if err != nil {
		b.Fatal(err)
	}
	benchSynthesize(b, g, 35)
}

// --- Online reconfiguration: single-fault delta replay vs from-scratch
// removal of the faulted grid. Same end state (acyclic, verified by the
// differential tests); the ratio is the point of the online path — the
// delta must be at least ~2x faster on the 10x10 grid, and the benchstat
// perf gate pins both sides. ---

func benchReconfigDesign(b *testing.B, cols, rows int) (*reconfig.Design, topology.LinkID) {
	g, err := regular.Mesh(cols, rows)
	if err != nil {
		b.Fatal(err)
	}
	n := cols * rows
	tr := traffic.NewGraph("all2all")
	for i := 0; i < n; i++ {
		tr.AddCore("")
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				tr.MustAddFlow(traffic.CoreID(s), traffic.CoreID(d), 10)
			}
		}
	}
	// Minimal-adaptive routing gives the base design a genuinely cyclic
	// union CDG, so the pre-fault removal does real work — which is
	// exactly what the warm path reuses and the cold baseline re-pays.
	// (A turn-model base is acyclic by construction: both paths would
	// only ever break the fault's own cycles, and the ratio would
	// measure nothing.)
	d, _, err := reconfig.New(g, tr, route.MinimalAdaptive, 2, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	faults, err := regular.SelectFaults(g, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return d, faults[0]
}

func benchReconfigDelta(b *testing.B, cols, rows int) {
	d, fault := benchReconfigDesign(b, cols, rows)
	ctx := context.Background()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := reconfig.NewState(d) // clone + CDG build, outside the timed region
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		delta, err := st.ApplyFault(ctx, fault, reconfig.Options{SkipSim: true})
		if err != nil {
			b.Fatal(err)
		}
		added = delta.VCsAdded
	}
	b.ReportMetric(float64(added), "VCs")
}

func benchReconfigCold(b *testing.B, cols, rows int) {
	d, fault := benchReconfigDesign(b, cols, rows)
	ctx := context.Background()
	st, err := reconfig.NewState(d)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.ApplyFault(ctx, fault, reconfig.Options{SkipSim: true}); err != nil {
		b.Fatal(err)
	}
	faulted := st.Design()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := reconfig.ColdRemove(ctx, faulted, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

func BenchmarkReconfigure_Delta8x8(b *testing.B)   { benchReconfigDelta(b, 8, 8) }
func BenchmarkReconfigure_Cold8x8(b *testing.B)    { benchReconfigCold(b, 8, 8) }
func BenchmarkReconfigure_Delta10x10(b *testing.B) { benchReconfigDelta(b, 10, 10) }
func BenchmarkReconfigure_Cold10x10(b *testing.B)  { benchReconfigCold(b, 10, 10) }

// --- Serial vs parallel sweep engine over the full paper grid. ---

func benchSweep(b *testing.B, parallel int) {
	grid := runner.Grid{
		Benchmarks:   traffic.BenchmarkNames(),
		SwitchCounts: []int{8, 11, 14, 17, 20},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := runner.Run(grid, runner.Options{Parallel: parallel})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
}

// The parallel variant uses max(8, NumCPU) workers: on a single-core host
// it measures pool overhead (expect parity with serial); on multi-core CI
// it measures the fan-out speedup.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) {
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8
	}
	benchSweep(b, workers)
}

// --- Batch engine vs sequential single-variant runs: the batch-first
// Simulate API's reason to exist. Both benchmarks run the identical 16
// seed variants of one removed 8x8-mesh design; BenchmarkLockstep_16v
// dispatches them as one batch (one construction, per-lane mutable
// state, lanes split across the CPUs)
// while BenchmarkLockstepSeq_16v runs 16 independent Simulate calls.
// The speedup target is ≥5x on a multi-core runner (construction
// sharing plus lane parallelism); the benchstat perf gate pins both
// sides so neither path regresses silently. ---

const lockstepVariants = 16

func lockstepWorkload(b *testing.B) (*nocdr.Topology, *nocdr.TrafficGraph, *nocdr.RouteTable) {
	b.Helper()
	grid, err := nocdr.Mesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	g, err := nocdr.UniformTraffic(64, 32, 100)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := nocdr.DORRoutes(grid, g)
	if err != nil {
		b.Fatal(err)
	}
	res, err := nocdr.NewSession().RemoveDeadlocks(context.Background(), grid.Topology, tab)
	if err != nil {
		b.Fatal(err)
	}
	return res.Topology, g, res.Routes
}

func lockstepSpec() nocdr.SimSpec {
	seeds := make([]int64, lockstepVariants)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return nocdr.SimSpec{
		Seeds: seeds,
		Base:  nocdr.SimConfig{MaxCycles: 1000, LoadFactor: 0.3},
	}
}

func BenchmarkLockstep_16v(b *testing.B) {
	top, g, tab := lockstepWorkload(b)
	s := nocdr.NewSession(nocdr.WithParallel(runtime.NumCPU()))
	spec := lockstepSpec()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs, err := s.SimulateBatch(ctx, top, g, tab, spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(bs.Variants) != lockstepVariants {
			b.Fatalf("got %d variants", len(bs.Variants))
		}
	}
}

func BenchmarkLockstepSeq_16v(b *testing.B) {
	top, g, tab := lockstepWorkload(b)
	s := nocdr.NewSession()
	spec := lockstepSpec()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sd := range spec.Seeds {
			cfg := spec.Base
			cfg.Seed = sd
			if _, err := s.Simulate(ctx, top, g, tab, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Extensions: alternative deadlock-freedom strategies (E12/E13). ---

// BenchmarkExtension_UpDownRouting measures the turn-prohibition
// baseline: zero VCs, but inflated routes (reported as avg hops).
func BenchmarkExtension_UpDownRouting(b *testing.B) {
	g, err := traffic.ByName("D36_8")
	if err != nil {
		b.Fatal(err)
	}
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := updown.Apply(des.Topology, g)
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Routes.AvgLen()
	}
	b.ReportMetric(avg, "avgHops")
	b.ReportMetric(des.Routes.AvgLen(), "shortestHops")
}

// BenchmarkExtension_RecoveryVsRemoval runs the DISHA-style comparison on
// the paper's ring at saturation and reports removal's throughput
// advantage.
func BenchmarkExtension_RecoveryVsRemoval(b *testing.B) {
	top, g, tab, err := bench.RingWorkload()
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, err := bench.CompareRecovery("ring", top, g, tab, 20000)
		if err != nil {
			b.Fatal(err)
		}
		speedup = row.Speedup()
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkExtension_TorusDateline measures the removal algorithm
// discovering dateline VCs on a 4x4 torus under DOR routing.
func BenchmarkExtension_TorusDateline(b *testing.B) {
	grid, err := regular.Torus(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tg, err := regular.UniformTraffic(16, 8, 100)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, tg)
	if err != nil {
		b.Fatal(err)
	}
	var added int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Remove(grid.Topology, tab, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

// --- Session overhead: the context-first pipeline API must be free. ---

// BenchmarkSessionOverhead mirrors BenchmarkRemoval_D26Media through the
// Session path with an attached (cheap) progress feed — the worst case
// for the new plumbing: per-break event construction plus the
// cancellation checks in the removal loop. The benchstat perf gate pins
// it next to BenchmarkRemoval_; the Session plumbing budget is < 2% over
// the direct core.Remove path.
func BenchmarkSessionOverhead(b *testing.B) {
	des := design(b, "D26_media", 14)
	events := 0
	s := nocdr.NewSession(nocdr.WithProgress(func(e nocdr.Event) { events++ }))
	ctx := context.Background()
	b.ResetTimer()
	var added int
	for i := 0; i < b.N; i++ {
		res, err := s.RemoveDeadlocks(ctx, des.Topology, des.Routes)
		if err != nil {
			b.Fatal(err)
		}
		added = res.AddedVCs
	}
	b.ReportMetric(float64(added), "VCs")
}

// BenchmarkSessionOverheadSimStep is the simulator-side twin: a Session
// simulator stepping under a context-checked Run loop, against the same
// steady-state workload BenchmarkSimStep times. (Step itself is shared;
// the cancellation poll lives in RunContext, amortized over 1024 cycles,
// so this mainly guards the epoch-feed wiring.)
func BenchmarkSessionOverheadSimStep(b *testing.B) {
	g, err := traffic.ByName("D26_media")
	if err != nil {
		b.Fatal(err)
	}
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
	if err != nil {
		b.Fatal(err)
	}
	s := nocdr.NewSession()
	ctx := context.Background()
	rm, err := s.RemoveDeadlocks(ctx, des.Topology, des.Routes)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := s.NewSimulator(rm.Topology, g, rm.Routes, nocdr.SimConfig{
		MaxCycles:  1 << 62,
		LoadFactor: 0.1,
		Seed:       11,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// cacheBenchPayload is a realistic cached-cell value: the canonical JSON
// of one sweep result, a few hundred bytes.
func cacheBenchPayload(b *testing.B) (string, []byte) {
	b.Helper()
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0}}
	rep, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(rep.Results[0])
	if err != nil {
		b.Fatal(err)
	}
	return runner.CellKey(grid.Jobs()[0], runner.Options{}, nil), data
}

// BenchmarkCacheHit pins the fabric cache's hot path: a Do call answered
// from the in-memory tier. This is the per-cell overhead every cached
// sweep pays, so it must stay in the tens of nanoseconds — a regression
// here taxes exactly the runs the cache exists to make free.
func BenchmarkCacheHit(b *testing.B) {
	key, data := cacheBenchPayload(b)
	cache := fabric.NewCache(fabric.CacheOptions{})
	cache.Put(key, data)
	b.ReportAllocs()
	b.ResetTimer()
	miss := func() ([]byte, error) { return nil, errors.New("benchmark cache missed") }
	for i := 0; i < b.N; i++ {
		if _, cached, err := cache.Do(key, false, miss); err != nil || !cached {
			b.Fatal("benchmark cache missed")
		}
	}
}

// BenchmarkCacheKey pins the key derivation (SHA-256 over the canonical
// job encoding) that both hit and miss paths pay per cell.
func BenchmarkCacheKey(b *testing.B) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0}}
	job := grid.Jobs()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.CellKey(job, runner.Options{}, nil)
	}
}

// BenchmarkSweepVerified is one op of nocbench's mesh_verify workload
// through Session.Sweep: a simulated and certified sweep of the 8x8
// dateline torus under DOR (cyclic, so its negative control must
// deadlock) and of the 8x8 mesh under odd-even routing with two faulted
// links, each over two seeds, on two workers. The simulator is most of
// its time.
func BenchmarkSweepVerified(b *testing.B) {
	grid := func(benchmark string) nocdr.SweepGrid {
		return nocdr.SweepGrid{
			Benchmarks:   []string{benchmark},
			SwitchCounts: []int{64},
			Policies:     []string{"smallest"},
			Seeds:        []int64{0, 1},
		}
	}
	torus, mesh := grid("torus:8x8:uniform"), grid("mesh:8x8")
	mesh.Routings, mesh.Faults = []string{"odd-even"}, 2
	s := nocdr.NewSession(nocdr.WithParallel(2))
	opts := nocdr.SweepOptions{Simulate: true, Certify: true}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range []nocdr.SweepGrid{torus, mesh} {
			rep, err := s.Sweep(ctx, g, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rep.Results {
				if r.Error != "" || r.Certify == nil || !r.Certify.Agree {
					b.Fatalf("cell %s failed verification: %+v", r.Job.Key(), r)
				}
			}
		}
	}
}

// BenchmarkSweepLoadCurve is a simulated load-curve sweep: the 8x8
// transpose mesh under odd-even routing (acyclic, so measurement lanes
// only), seeds 1–4, each measured at the canonical load 1 and at loads
// 0.5 and 1.0, on two workers. Every transpose flow has one bandwidth, so
// at load 1 no injection draw decides anything and the four seeds'
// load-1 lanes are one run, and each seed's load-1 curve point repeats
// its canonical lane: 5 of the 12 lanes run, from one lane queue.
func BenchmarkSweepLoadCurve(b *testing.B) {
	grid := nocdr.SweepGrid{
		Benchmarks:   []string{"mesh:8x8:transpose"},
		SwitchCounts: []int{64},
		Policies:     []string{"smallest"},
		Routings:     []string{"odd-even"},
		Seeds:        []int64{1, 2, 3, 4},
		Loads:        []float64{0.5, 1.0},
	}
	s := nocdr.NewSession(nocdr.WithParallel(2))
	opts := nocdr.SweepOptions{Simulate: true}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Sweep(ctx, grid, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Error != "" || r.Sim == nil || r.Sim.PostDeadlock || len(r.Sim.LoadSweep) != 2 {
				b.Fatalf("cell %s failed: %+v", r.Job.Key(), r)
			}
		}
	}
}

// BenchmarkSweepPaperLoop is one pass of nocbench's paper_sweep
// workload through Session.Sweep: a one-cell sweep of every paper
// benchmark at every switch count of Figures 8–9 up to its core count
// (46 pairs), at parallel 1, each synthesizing one design and removing
// its deadlocks, the paper's own design loop end to end. Synthesis is
// most of its time.
func BenchmarkSweepPaperLoop(b *testing.B) {
	var grids []nocdr.SweepGrid
	for _, name := range traffic.BenchmarkNames() {
		g, err := traffic.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, sw := range []int{8, 11, 14, 17, 20, 25, 30, 35} {
			if sw <= g.NumCores() {
				grids = append(grids, nocdr.SweepGrid{
					Benchmarks:   []string{name},
					SwitchCounts: []int{sw},
					Policies:     []string{"smallest"},
					Seeds:        []int64{0},
				})
			}
		}
	}
	if len(grids) != 46 {
		b.Fatalf("got %d paper grids, want 46", len(grids))
	}
	s := nocdr.NewSession(nocdr.WithParallel(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range grids {
			rep, err := s.Sweep(ctx, g, nocdr.SweepOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Results) != 1 || rep.Results[0].Error != "" {
				b.Fatalf("paper cell %v failed: %+v", g.Benchmarks, rep.Results)
			}
		}
	}
}

// fleetGrid is the 36-cell grid of the fleet workloads: three transpose
// presets × three adaptive routings × four seeds, one seeded fault each.
var fleetGrid = nocdr.SweepGrid{
	Benchmarks:   []string{"mesh:4x4:transpose", "torus:4x4:transpose", "mesh:6x6:transpose"},
	SwitchCounts: []int{16},
	Policies:     []string{"smallest"},
	Routings:     []string{"west-first", "odd-even", "min-adaptive"},
	Faults:       1,
	Seeds:        []int64{0, 1, 2, 3},
}

// BenchmarkSweepFleetGrid pins the per-cell build cost: a cold, serial
// Session.Sweep of the fleet grid, no cache and no simulation. Each
// cell picks its seeded fault, routes the route set, runs removal and
// counts the resource-ordering baseline, so this is the work each
// worker does per shard of a cold fleet sweep.
func BenchmarkSweepFleetGrid(b *testing.B) {
	s := nocdr.NewSession(nocdr.WithParallel(1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Sweep(ctx, fleetGrid, nocdr.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 36 {
			b.Fatalf("got %d results, want 36", len(rep.Results))
		}
	}
}

// BenchmarkSweepFleetCold pins a cold sharded sweep end to end: the
// fleet grid through Session.Sweep on two loopback workers, with a fresh
// coordinator cache and Session per op, so every cell is dispatched.
// What it times beyond the cells themselves is the fleet's round trips:
// submits, event streams, report decoding and the merge.
func BenchmarkSweepFleetCold(b *testing.B) {
	urls, shutdown, err := serve.LocalCluster(2, serve.Options{Workers: 2, SweepParallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := fabric.NewCache(fabric.CacheOptions{})
		s := nocdr.NewSession(nocdr.WithWorkers(urls...), nocdr.WithResultCache(cache))
		rep, err := s.Sweep(ctx, fleetGrid, nocdr.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 36 {
			b.Fatalf("got %d results, want 36", len(rep.Results))
		}
		cache.Close()
	}
}

// BenchmarkSweepFleetWarm pins a warm sharded sweep end to end, the
// shape of the fleet_warm workload: one coordinator cache filled with
// eight seed sets of the fleet grid (seeds 0–31), and each op re-sweeps
// all eight through Session.Sweep on two loopback workers. Every cell is
// a cache hit, so no shard is dispatched; what it times is validation,
// enumeration, cell keys, lookups, the hits' copies and placement.
func BenchmarkSweepFleetWarm(b *testing.B) {
	urls, shutdown, err := serve.LocalCluster(2, serve.Options{Workers: 2, SweepParallel: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	grids := make([]nocdr.SweepGrid, 8)
	for j := range grids {
		grids[j] = fleetGrid
		s0 := int64(4 * j)
		grids[j].Seeds = []int64{s0, s0 + 1, s0 + 2, s0 + 3}
	}
	cache := fabric.NewCache(fabric.CacheOptions{})
	s := nocdr.NewSession(nocdr.WithWorkers(urls...), nocdr.WithResultCache(cache))
	ctx := context.Background()
	sweep := func() {
		for _, g := range grids {
			if _, err := s.Sweep(ctx, g, nocdr.SweepOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := cache.Stats()
		sweep()
		if st := cache.Stats(); st.Misses != before.Misses || st.Hits-before.Hits != 8*36 {
			b.Fatalf("warm op missed the cache: %+v then %+v", before, st)
		}
	}
}

// BenchmarkSweepWarmCache pins a sweep's fixed cost: Session.Sweep over
// the 36-cell fleet grid with every cell served from a pre-filled
// in-memory result cache. What it times is what each request pays before
// and around the cells: grid validation, job enumeration, cache keys,
// lookups and decoding.
func BenchmarkSweepWarmCache(b *testing.B) {
	grid := fleetGrid
	cache := fabric.NewCache(fabric.CacheOptions{})
	s := nocdr.NewSession(nocdr.WithResultCache(cache))
	ctx := context.Background()
	if _, err := s.Sweep(ctx, grid, nocdr.SweepOptions{}); err != nil {
		b.Fatal(err)
	}
	before := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.Sweep(ctx, grid, nocdr.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 36 {
			b.Fatalf("got %d results, want 36", len(rep.Results))
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != before.Misses || st.Hits-before.Hits != uint64(36*b.N) {
		b.Fatalf("warm sweeps missed the cache: %+v then %+v", before, st)
	}
}
