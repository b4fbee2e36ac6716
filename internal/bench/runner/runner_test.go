package runner

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// TestParallelMatchesSerialJSON is the determinism-under-concurrency
// check of the sweep engine: the full six-benchmark grid run serially and
// with a pool of workers must serialize to byte-identical JSON. Run under
// -race (as CI does) this also shakes out data races in the fan-out.
func TestParallelMatchesSerialJSON(t *testing.T) {
	grid := Grid{
		Benchmarks:   traffic.BenchmarkNames(),
		SwitchCounts: []int{8, 11, 14, 20},
		Policies:     []string{"smallest", "first"},
	}
	serial, err := Run(grid, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(grid, Options{Parallel: 2 * runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serial and parallel sweeps differ:\nserial:\n%s\nparallel:\n%s", a.String(), b.String())
	}
	for _, r := range serial.Results {
		if r.Error != "" {
			t.Errorf("job %s@%d failed: %s", r.Benchmark, r.SwitchCount, r.Error)
		}
	}
}

// TestRunRepeatedRunsIdentical pins run-to-run determinism with the same
// worker count — the property the experiment layer inherits from the
// deterministic removal algorithm.
func TestRunRepeatedRunsIdentical(t *testing.T) {
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8, 14}}
	var first bytes.Buffer
	for i := 0; i < 3; i++ {
		rep, err := Run(grid, Options{Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf
			continue
		}
		if !bytes.Equal(first.Bytes(), buf.Bytes()) {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

func TestGridJobsOrderAndDefaults(t *testing.T) {
	jobs := Grid{}.Jobs()
	want := len(traffic.BenchmarkNames()) * len(DefaultSwitchCounts)
	if len(jobs) != want {
		t.Fatalf("default grid has %d jobs, want %d", len(jobs), want)
	}
	if jobs[0].Benchmark != "D26_media" || jobs[0].SwitchCount != DefaultSwitchCounts[0] {
		t.Errorf("unexpected first job %+v", jobs[0])
	}
	g := Grid{Benchmarks: []string{"a", "b"}, SwitchCounts: []int{1, 2}, Policies: []string{"p"}, Seeds: []int64{0, 1}}
	jobs = g.Jobs()
	if len(jobs) != 8 {
		t.Fatalf("cross product has %d jobs, want 8", len(jobs))
	}
	// Benchmark-major, then switch count, then seed.
	if jobs[1].Seed != 1 || jobs[2].SwitchCount != 2 || jobs[4].Benchmark != "b" {
		t.Errorf("unexpected job order: %+v", jobs[:5])
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{Benchmarks: []string{"nope"}}).Validate(); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := (Grid{Policies: []string{"loudest"}}).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := (Grid{SwitchCounts: []int{0}}).Validate(); err == nil {
		t.Error("zero switch count accepted")
	}
	if err := (Grid{Benchmarks: []string{"rand:8x3"}, SwitchCounts: []int{4}}).Validate(); err != nil {
		t.Errorf("rand spec rejected: %v", err)
	}
	if err := (Grid{Benchmarks: []string{"rand:2x5"}}).Validate(); err == nil {
		t.Error("out-of-range rand spec accepted")
	}
}

// TestRandomSpecSweep exercises the scenario axis beyond the paper's six
// benchmarks: random k-out graphs instantiated per seed.
func TestRandomSpecSweep(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"rand:24x4"},
		SwitchCounts: []int{8, 12},
		Seeds:        []int64{1, 2, 3},
	}
	rep, err := Run(grid, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(rep.Results))
	}
	distinct := false
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("job %+v failed: %s", r.Job, r.Error)
		}
		if r.RemovalVCs != rep.Results[0].RemovalVCs {
			distinct = true
		}
	}
	_ = distinct // seeds may coincide in cost; the point is they all ran
}

// TestSimulatedSweepVerifiesRemoval is the verification sweep in miniature:
// flit-level simulation on paper benchmarks plus a torus preset whose DOR
// routes are deadlock-prone. Post-removal deadlocks must never occur; the
// torus negative control must actually deadlock.
func TestSimulatedSweepVerifiesRemoval(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"D26_media", "D36_8", "torus:4x4:uniform"},
		SwitchCounts: []int{8},
	}
	rep, err := Run(grid, Options{Parallel: runtime.NumCPU(), Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	preDeadlocks := 0
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("job %+v failed: %s", r.Job, r.Error)
		}
		if r.Skipped {
			continue
		}
		if r.Sim == nil {
			t.Fatalf("job %+v: Simulate set but no sim result", r.Job)
		}
		if r.Sim.PostDeadlock {
			t.Errorf("job %+v: deadlock AFTER removal — the paper's guarantee is violated", r.Job)
		}
		if r.InitialAcyclic && r.Sim.PreRan {
			t.Errorf("job %+v: negative control ran on an acyclic design", r.Job)
		}
		if !r.InitialAcyclic && !r.Sim.PreRan {
			t.Errorf("job %+v: cyclic design skipped its negative control", r.Job)
		}
		if r.Sim.PreRan && !r.Sim.PreDeadlock {
			t.Errorf("job %+v: witness workload did not deadlock the cyclic design", r.Job)
		}
		if r.Sim.PreRan && r.Sim.WitnessFlows == 0 {
			t.Errorf("job %+v: witness ran with no saturated flows", r.Job)
		}
		if r.Sim.PreDeadlock {
			preDeadlocks++
		}
		if r.Sim.PostDelivered == 0 {
			t.Errorf("job %+v: post-removal simulation delivered nothing", r.Job)
		}
	}
	if preDeadlocks == 0 {
		t.Error("no negative-control deadlock in the whole sweep; the verification has no teeth")
	}
	// The torus preset pins its own switch count (cols*rows), once per
	// policy×seed.
	last := rep.Results[len(rep.Results)-1]
	if last.Benchmark != "torus:4x4:uniform" || last.SwitchCount != 16 {
		t.Errorf("torus preset job malformed: %+v", last.Job)
	}
	if last.InitialAcyclic {
		t.Error("torus DOR routes reported acyclic; the dateline hazard is gone?")
	}
}

// TestWitnessSaturatesRegardlessOfLoad pins that a sub-saturation
// -sim-load does not de-fang the negative control: the witness runs
// always drive the cycle-inducing flows at load 1.
func TestWitnessSaturatesRegardlessOfLoad(t *testing.T) {
	grid := Grid{Benchmarks: []string{"torus:4x4:uniform"}}
	rep, err := Run(grid, Options{Simulate: true, Sim: SimParams{Load: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Results[0]
	if r.Error != "" {
		t.Fatal(r.Error)
	}
	if !r.Sim.PreRan || !r.Sim.PreDeadlock {
		t.Errorf("witness at -sim-load 0.2 did not deadlock the cyclic torus: %+v", r.Sim)
	}
	if r.Sim.PostDeadlock {
		t.Error("post-removal deadlock")
	}
}

// TestSimulatedSweepDeterministic pins byte-identical JSON for simulated
// sweeps across worker counts, extending the engine's core determinism
// guarantee to the new stage.
func TestSimulatedSweepDeterministic(t *testing.T) {
	grid := Grid{
		Benchmarks:   []string{"D26_media", "mesh:3x3:hotspot"},
		SwitchCounts: []int{8},
		Seeds:        []int64{0, 1},
	}
	opts := Options{Simulate: true, Sim: SimParams{Cycles: 5000}}
	optsSerial, optsParallel := opts, opts
	optsSerial.Parallel = 1
	optsParallel.Parallel = 2 * runtime.NumCPU()
	serial, err := Run(grid, optsSerial)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(grid, optsParallel)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("serial and parallel simulated sweeps differ:\n%s\n%s", a.String(), b.String())
	}
}

// TestPatternSpecs resolves the adversarial pattern grammar.
func TestPatternSpecs(t *testing.T) {
	for spec, cores := range map[string]int{
		"transpose:16": 16,
		"bitrev:32":    32,
		"hotspot:24x3": 24,
		"hotspot:24":   24,
	} {
		s, err := parseSpec(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		g, err := s.graph(0)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if g.NumCores() != cores {
			t.Errorf("%s: %d cores, want %d", spec, g.NumCores(), cores)
		}
	}
	for _, bad := range []string{"transpose:15", "transpose:16x4", "bitrev:12", "bitrev:8x2", "hotspot:2x2", "mesh:1x1:uniform", "torus:4x4:nope"} {
		if err := (Grid{Benchmarks: []string{bad}, SwitchCounts: []int{4}}).Validate(); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if err := (Grid{Benchmarks: []string{"mesh:4x4:transpose", "torus:8x4:bitrev"}, SwitchCounts: []int{4}}).Validate(); err != nil {
		t.Errorf("valid presets rejected: %v", err)
	}
}

// TestPresetJobsPinSwitchCount checks that mesh/torus presets ignore the
// switch-count axis.
func TestPresetJobsPinSwitchCount(t *testing.T) {
	g := Grid{
		Benchmarks:   []string{"D26_media", "torus:4x4:uniform"},
		SwitchCounts: []int{8, 14},
		Seeds:        []int64{0, 1},
	}
	jobs := g.Jobs()
	// D26: 2 switch counts × 2 seeds; torus: 1 pinned count × 2 seeds.
	if len(jobs) != 6 {
		t.Fatalf("got %d jobs, want 6", len(jobs))
	}
	for _, j := range jobs[4:] {
		if j.SwitchCount != 16 {
			t.Errorf("preset job has switch count %d, want 16", j.SwitchCount)
		}
	}
}

// TestSkippedAndProgress covers the switches-exceed-cores convention and
// the progress stream.
func TestSkippedAndProgress(t *testing.T) {
	var progress strings.Builder
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{14, 99}}
	rep, err := Run(grid, Options{Progress: &progress})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Results[1].Skipped {
		t.Error("99-switch job on a 26-core benchmark not skipped")
	}
	if got := strings.Count(progress.String(), "\n"); got != 2 {
		t.Errorf("progress stream has %d lines, want 2:\n%s", got, progress.String())
	}
}

// TestRunContextMidSweepCancel cancels the sweep from its own event feed
// after the first completed cell: the run must drain promptly and return
// a valid partial report — canceled flag set, completed cells intact,
// unscheduled cells marked canceled with their job identity preserved.
func TestRunContextMidSweepCancel(t *testing.T) {
	grid := Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{5, 6, 7, 8, 9, 10, 11, 12}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	rep, err := RunContext(ctx, grid, Options{
		Parallel: 1,
		OnResult: func(i, total int, res Result) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("report not marked canceled")
	}
	var done, canceled int
	for i, r := range rep.Results {
		if r.Benchmark != "D26_media" {
			t.Fatalf("slot %d lost its job identity: %q", i, r.Benchmark)
		}
		if r.Canceled {
			canceled++
		} else {
			done++
		}
	}
	if done == 0 || canceled == 0 {
		t.Fatalf("expected a mix of completed and canceled cells, got done=%d canceled=%d", done, canceled)
	}
}

// TestRunContextCompleteRunNotCanceled pins that an uninterrupted run
// never carries cancellation markers (so serial/parallel byte-identical
// JSON is unaffected by the context plumbing).
func TestRunContextCompleteRunNotCanceled(t *testing.T) {
	rep, err := RunContext(context.Background(), Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled {
		t.Fatal("complete run marked canceled")
	}
	for _, r := range rep.Results {
		if r.Canceled {
			t.Fatal("complete run has canceled cells")
		}
	}
}

// TestAdaptiveFaultedSweepVerifies drives the routing and fault axes end
// to end: turn-model and fully-adaptive cells on a faulted mesh preset,
// with the flit-level verification stage. The paper's claim under test:
// whatever route set the scenario produces, removal leaves a design with
// zero simulated deadlocks.
func TestAdaptiveFaultedSweepVerifies(t *testing.T) {
	grid := Grid{
		Benchmarks: []string{"D26_media", "mesh:4"},
		Routings:   []string{"odd-even", "min-adaptive"},
		Faults:     2,
		MaxPaths:   4,
		Seeds:      []int64{0, 1},
	}
	jobs := grid.Jobs()
	// D26 (synthesized: no routing axis): switch counts × 2 seeds; the
	// mesh preset crosses with both routings × 2 seeds.
	for _, j := range jobs {
		if j.Benchmark == "D26_media" && (j.Routing != "" || j.Faults != 0) {
			t.Fatalf("synthesized benchmark crossed with the routing axis: %+v", j)
		}
		if j.Benchmark == "mesh:4" && (j.Routing == "" || j.Faults != 2) {
			t.Fatalf("preset job missing routing/faults: %+v", j)
		}
	}

	rep, err := Run(grid, Options{Parallel: runtime.NumCPU(), Simulate: true})
	if err != nil {
		t.Fatal(err)
	}
	adaptive := 0
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("job %+v failed: %s", r.Job, r.Error)
		}
		if r.Skipped || r.Routing == "" {
			continue
		}
		adaptive++
		if r.Paths == 0 {
			t.Errorf("job %+v: adaptive cell reports no candidate paths", r.Job)
		}
		if r.Sim == nil {
			t.Fatalf("job %+v: Simulate set but no sim result", r.Job)
		}
		if r.Sim.PostDeadlock {
			t.Errorf("job %+v: deadlock AFTER removal on an adaptive faulted cell", r.Job)
		}
		if r.Sim.PostDelivered == 0 {
			t.Errorf("job %+v: post-removal simulation delivered nothing", r.Job)
		}
		if !r.InitialAcyclic && !r.Sim.PreRan {
			t.Errorf("job %+v: cyclic union CDG skipped its negative control", r.Job)
		}
		if r.Routing == "odd-even" && r.Faults == 0 {
			t.Errorf("job %+v: fault axis lost", r.Job)
		}
	}
	if adaptive != 4 {
		t.Fatalf("%d adaptive cells ran, want 4", adaptive)
	}

	// The whole report must survive a JSON round trip with the new axes
	// intact.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"routing": "odd-even"`) &&
		!strings.Contains(buf.String(), `"routing":"odd-even"`) {
		t.Error("routing axis missing from the JSON report")
	}
}

// TestGridValidateRoutingAxis pins validation of the new grid fields.
func TestGridValidateRoutingAxis(t *testing.T) {
	if err := (Grid{Benchmarks: []string{"mesh:4"}, Routings: []string{"zig-zag"}}).Validate(); err == nil {
		t.Error("unknown routing accepted")
	}
	if err := (Grid{Benchmarks: []string{"mesh:4"}, Faults: -1}).Validate(); err == nil {
		t.Error("negative fault count accepted")
	}
	if err := (Grid{Benchmarks: []string{"mesh:4"}, MaxPaths: -2}).Validate(); err == nil {
		t.Error("negative max-paths accepted")
	}
	if err := (Grid{Benchmarks: []string{"mesh:4"}, MaxPaths: route.MaxPaths}).Validate(); err != nil {
		t.Errorf("max-paths at the bound rejected: %v", err)
	}
	if err := (Grid{Benchmarks: []string{"mesh:4"}, MaxPaths: route.MaxPaths + 1}).Validate(); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("max-paths above the bound: err %v, want invalid input", err)
	}
	if err := (Grid{Benchmarks: []string{"mesh:4"}, Routings: []string{"west-first", "min-adaptive"}, Faults: 2}).Validate(); err != nil {
		t.Errorf("valid adaptive grid rejected: %v", err)
	}
}
