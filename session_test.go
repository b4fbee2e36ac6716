package nocdr

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// torusWorkload builds the 4x4 torus with stride-8 uniform traffic and
// DOR routes — a design whose dateline cycles take four breaks to
// remove, giving the cancellation and event tests room to interrupt.
func torusWorkload(t *testing.T) (*Topology, *TrafficGraph, *RouteTable) {
	t.Helper()
	grid, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := UniformTraffic(16, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	return grid.Topology, g, tab
}

// TestSessionDifferentialRemoval pins that the deprecated free function
// and the Session path produce byte-identical results — same break
// sequences, same modified topology and routes — across policies, and
// with the deprecated full-rebuild switches set (both are no-ops).
func TestSessionDifferentialRemoval(t *testing.T) {
	top, _, tab := torusWorkload(t)
	for _, tc := range []struct {
		name string
		opts RemovalOptions
		sess *Session
	}{
		{"default", RemovalOptions{}, NewSession()},
		{"first-found", RemovalOptions{Selection: FirstFound}, NewSession(WithSelection(FirstFound))},
		{"forward-only", RemovalOptions{Policy: ForwardOnly}, NewSession(WithPolicy(ForwardOnly))},
		{"full-rebuild", RemovalOptions{FullRebuild: true}, NewSession(WithFullRebuild(true))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, err := RemoveDeadlocks(top, tab, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			neu, err := tc.sess.RemoveDeadlocks(context.Background(), top, tab)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(old.Breaks, neu.Breaks) {
				t.Fatalf("break sequences differ:\nold: %+v\nnew: %+v", old.Breaks, neu.Breaks)
			}
			if old.AddedVCs != neu.AddedVCs || old.Iterations != neu.Iterations {
				t.Fatalf("outcome differs: old vcs=%d iters=%d, new vcs=%d iters=%d",
					old.AddedVCs, old.Iterations, neu.AddedVCs, neu.Iterations)
			}
			oldTopo, newTopo := encodeJSON(t, old.Topology), encodeJSON(t, neu.Topology)
			if !bytes.Equal(oldTopo, newTopo) {
				t.Fatal("modified topologies serialize differently")
			}
			oldRoutes, newRoutes := encodeJSON(t, old.Routes), encodeJSON(t, neu.Routes)
			if !bytes.Equal(oldRoutes, newRoutes) {
				t.Fatal("modified routes serialize differently")
			}
		})
	}
}

// encodeJSON serializes an artifact through its Write method for byte
// comparison.
func encodeJSON(t *testing.T, v interface{ Write(w io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionDifferentialSweep pins that the deprecated-path sweep (the
// runner used directly, as `nocexp sweep` did pre-Session) and
// Session.Sweep serialize to byte-identical JSON, at any worker count.
func TestSessionDifferentialSweep(t *testing.T) {
	grid := SweepGrid{Benchmarks: []string{"D26_media", "D36_8"}, SwitchCounts: []int{8, 10}}
	serial, err := NewSession().Sweep(context.Background(), grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSession(WithParallel(8)).Sweep(context.Background(), grid, SweepOptions{})
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
		t.Fatal("serial and parallel Session sweeps serialize differently")
	}
}

// TestSessionCancelMidRemoval cancels from inside the progress feed
// after the first cycle break: the removal must stop promptly with an
// error that satisfies both ErrCanceled and context.Canceled, and
// return no partial result.
func TestSessionCancelMidRemoval(t *testing.T) {
	top, _, tab := torusWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	breaks := 0
	s := NewSession(WithProgress(func(e Event) {
		if e.Kind == EventCycleBroken {
			breaks++
			cancel()
		}
	}))
	res, err := s.RemoveDeadlocks(ctx, top, tab)
	if res != nil {
		t.Fatal("canceled removal returned a partial result")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if breaks != 1 {
		t.Fatalf("removal kept breaking after cancellation: %d breaks", breaks)
	}
}

// TestSessionCancelMidSimulation cancels a multi-billion-cycle
// simulation shortly after it starts; the flit-stepping loop must notice
// within its polling interval and return promptly.
func TestSessionCancelMidSimulation(t *testing.T) {
	top, g, tab := torusWorkload(t)
	// Remove deadlocks first so the run cannot end early on its own.
	res, err := NewSession().RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		st  *SimStats
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := NewSession().Simulate(ctx, res.Topology, g, res.Routes, SimConfig{
			MaxCycles:  4_000_000_000,
			LoadFactor: 0.5,
		})
		done <- outcome{st, err}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case out := <-done:
		if out.st != nil {
			t.Fatal("canceled simulation returned stats")
		}
		if !errors.Is(out.err, ErrCanceled) || !errors.Is(out.err, context.Canceled) {
			t.Fatalf("error %v does not wrap ErrCanceled/context.Canceled", out.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation did not return within 10s of cancellation")
	}
}

// TestSessionVCLimit pins the WithVCLimit budget: a limit below the
// workload's need fails with ErrVCLimit, a sufficient one matches the
// unlimited outcome exactly.
func TestSessionVCLimit(t *testing.T) {
	top, _, tab := torusWorkload(t)
	unlimited, err := NewSession().RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.AddedVCs < 2 {
		t.Fatalf("workload adds %d VCs; need >= 2 for a meaningful limit test", unlimited.AddedVCs)
	}
	if _, err := NewSession(WithVCLimit(unlimited.AddedVCs-1)).RemoveDeadlocks(context.Background(), top, tab); !errors.Is(err, ErrVCLimit) {
		t.Fatalf("limit %d: error %v does not wrap ErrVCLimit", unlimited.AddedVCs-1, err)
	}
	capped, err := NewSession(WithVCLimit(unlimited.AddedVCs)).RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if capped.AddedVCs != unlimited.AddedVCs {
		t.Fatalf("sufficient limit changed the outcome: %d vs %d VCs", capped.AddedVCs, unlimited.AddedVCs)
	}
}

// TestSessionEventFeed checks the removal feed's shape: one cycle_broken
// per iteration, one vc_added per provisioned channel, and totals that
// reconcile with the result.
func TestSessionEventFeed(t *testing.T) {
	top, _, tab := torusWorkload(t)
	var broken, added int
	var lastIter int
	s := NewSession(WithProgress(func(e Event) {
		switch e.Kind {
		case EventCycleBroken:
			broken++
			if e.Iteration != lastIter+1 {
				t.Errorf("cycle_broken iteration %d after %d", e.Iteration, lastIter)
			}
			lastIter = e.Iteration
			if e.Break == nil || len(e.Break.Cycle) == 0 {
				t.Error("cycle_broken event without break record")
			}
		case EventVCAdded:
			added++
			if e.Iteration != lastIter {
				t.Errorf("vc_added iteration %d outside break %d", e.Iteration, lastIter)
			}
		}
	}))
	res, err := s.RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if broken != res.Iterations {
		t.Fatalf("%d cycle_broken events, %d iterations", broken, res.Iterations)
	}
	if added != res.AddedVCs {
		t.Fatalf("%d vc_added events, %d added VCs", added, res.AddedVCs)
	}
}

// TestSessionSimEpochEvents checks that a progress-carrying Session
// emits periodic epoch snapshots with monotone cycles.
func TestSessionSimEpochEvents(t *testing.T) {
	top, g, tab := torusWorkload(t)
	res, err := NewSession().RemoveDeadlocks(context.Background(), top, tab)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int64
	s := NewSession(WithProgress(func(e Event) {
		if e.Kind == EventSimEpoch {
			epochs = append(epochs, e.Epoch.Cycle)
		}
	}))
	if _, err := s.Simulate(context.Background(), res.Topology, g, res.Routes, SimConfig{
		MaxCycles:   5000,
		LoadFactor:  0.3,
		EpochCycles: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) < 4 {
		t.Fatalf("expected >= 4 epoch events over 5000 cycles at period 1000, got %d", len(epochs))
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epoch cycles not monotone: %v", epochs)
		}
	}
}

// TestSentinelErrors pins the errors.Is surface of the public API.
func TestSentinelErrors(t *testing.T) {
	if _, err := Benchmark("no_such_benchmark"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown benchmark error %v does not wrap ErrNotFound", err)
	}
	if _, err := ReadTopology(bytes.NewReader([]byte("{not json"))); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("malformed topology error %v does not wrap ErrInvalidInput", err)
	}
	if _, err := NewSession().Synthesize(context.Background(), NewTraffic("empty"), SynthOptions{SwitchCount: 0}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("bad synth options error %v does not wrap ErrInvalidInput", err)
	}
	// MaxIterations exhaustion surfaces the cyclic-CDG sentinel.
	top, _, tab := torusWorkload(t)
	if _, err := NewSession(WithMaxIterations(1)).RemoveDeadlocks(context.Background(), top, tab); !errors.Is(err, ErrCyclicCDG) {
		t.Fatalf("iteration-capped removal error %v does not wrap ErrCyclicCDG", err)
	}
}

// TestDeprecatedWrappersStillWork exercises every deprecated free
// function once against its Session equivalent on a benchmark design.
func TestDeprecatedWrappersStillWork(t *testing.T) {
	g, err := Benchmark("D36_8")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	ctx := context.Background()

	oldD, err := Synthesize(g, SynthOptions{SwitchCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	newD, err := s.Synthesize(ctx, g, SynthOptions{SwitchCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, oldD.Topology), encodeJSON(t, newD.Topology)) {
		t.Fatal("Synthesize differs between old and new API")
	}

	oldTab, err := ComputeRoutes(oldD.Topology, g)
	if err != nil {
		t.Fatal(err)
	}
	newTab, err := s.ComputeRoutes(newD.Topology, g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeJSON(t, oldTab), encodeJSON(t, newTab)) {
		t.Fatal("ComputeRoutes differs between old and new API")
	}

	oldFree, err := DeadlockFree(oldD.Topology, oldD.Routes)
	if err != nil {
		t.Fatal(err)
	}
	newFree, err := s.DeadlockFree(newD.Topology, newD.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if oldFree != newFree {
		t.Fatal("DeadlockFree differs between old and new API")
	}

	oldCDG, err := BuildCDG(oldD.Topology, oldD.Routes)
	if err != nil {
		t.Fatal(err)
	}
	newCDG, err := s.BuildCDG(newD.Topology, newD.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if oldCDG.NumDependencies() != newCDG.NumDependencies() {
		t.Fatal("BuildCDG differs between old and new API")
	}

	oldOrd, err := ApplyResourceOrdering(oldD.Topology, oldD.Routes, HopIndex)
	if err != nil {
		t.Fatal(err)
	}
	newOrd, err := s.ApplyResourceOrdering(newD.Topology, newD.Routes, HopIndex)
	if err != nil {
		t.Fatal(err)
	}
	if oldOrd.AddedVCs != newOrd.AddedVCs {
		t.Fatal("ApplyResourceOrdering differs between old and new API")
	}

	rm, err := RemoveDeadlocks(oldD.Topology, oldD.Routes, RemovalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycleless := rm.Topology
	oldStats, err := Simulate(cycleless, g, rm.Routes, SimConfig{MaxCycles: 2000, LoadFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	newStats, err := s.Simulate(ctx, cycleless, g, rm.Routes, SimConfig{MaxCycles: 2000, LoadFactor: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if oldStats.DeliveredPackets != newStats.DeliveredPackets || oldStats.Cycles != newStats.Cycles {
		t.Fatal("Simulate differs between old and new API")
	}

	if len(rm.Breaks) > 0 {
		cyc := rm.Breaks[0].Cycle
		oldCT, err := ForwardCostTable(cyc, oldD.Routes)
		if err != nil {
			t.Fatal(err)
		}
		newCT, err := s.CostTable(Forward, cyc, newD.Routes)
		if err != nil {
			t.Fatal(err)
		}
		if oldCT.BestCost != newCT.BestCost || oldCT.BestEdge != newCT.BestEdge {
			t.Fatal("cost tables differ between old and new API")
		}
	}
}

// TestSessionSweepHonorsSessionOptions pins that Sweep plumbs the
// Session's VC limit and direction policy into every cell (a budget too
// small must surface as per-cell errors), and that an empty grid
// Policies axis inherits the Session's WithSelection.
func TestSessionSweepHonorsSessionOptions(t *testing.T) {
	grid := SweepGrid{Benchmarks: []string{"D36_8"}, SwitchCounts: []int{14}}
	rep, err := NewSession(WithVCLimit(1)).Sweep(context.Background(), grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.Results[0].Error; !strings.Contains(e, "VC limit") {
		t.Fatalf("cell with 1-VC budget should fail with the VC-limit error, got %q", e)
	}

	rep, err = NewSession(WithSelection(FirstFound)).Sweep(context.Background(), grid, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := rep.Grid.Policies[0]; p != "first" {
		t.Fatalf("empty Policies axis resolved to %q, want the Session's \"first\"", p)
	}
}

// TestErrorPrefixExactlyOnce pins wrapErr's contract: one "nocdr: "
// prefix, even when a sentinel sits mid-chain.
func TestErrorPrefixExactlyOnce(t *testing.T) {
	for name, err := range map[string]error{
		"malformed topology": func() error {
			_, err := ReadTopology(strings.NewReader(`{"name":"x","switches":[{"id":7}],"links":[]}`))
			return err
		}(),
		"unknown benchmark": func() error {
			_, err := Benchmark("nope")
			return err
		}(),
		"bad synth options": func() error {
			_, err := NewSession().Synthesize(context.Background(), NewTraffic("e"), SynthOptions{})
			return err
		}(),
	} {
		if err == nil {
			t.Fatalf("%s: expected an error", name)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "nocdr: ") {
			t.Fatalf("%s: %q lacks the nocdr: prefix", name, msg)
		}
		if strings.Count(msg, "nocdr: ") != 1 {
			t.Fatalf("%s: %q carries the nocdr: prefix more than once", name, msg)
		}
	}
}
