package reconfig

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// matrixModels is the PR 4 turn-model matrix the differential property
// must hold on (DOR is excluded by contract: it cannot route around
// faults at all).
var matrixModels = []route.TurnModel{
	route.WestFirst, route.NorthLast, route.NegativeFirst, route.OddEven, route.MinimalAdaptive,
}

// allToAll builds one core per switch and a flow per ordered pair.
func allToAll(t testing.TB, n int) *traffic.Graph {
	t.Helper()
	g := traffic.NewGraph(fmt.Sprintf("all2all_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				g.MustAddFlow(traffic.CoreID(s), traffic.CoreID(d), 10)
			}
		}
	}
	return g
}

func mustGrid(t testing.TB, wrap bool, cols, rows int) *regular.Grid {
	t.Helper()
	var g *regular.Grid
	var err error
	if wrap {
		g, err = regular.Torus(cols, rows)
	} else {
		g, err = regular.Mesh(cols, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildDesign(t testing.TB, g *regular.Grid, tr *traffic.Graph, model route.TurnModel) *Design {
	t.Helper()
	d, _, err := New(g, tr, model, 2, core.Options{})
	if err != nil {
		t.Fatalf("%s: New: %v", model, err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("%s: fresh design invalid: %v", model, err)
	}
	return d
}

func designJSON(t testing.TB, d *Design) []byte {
	t.Helper()
	data, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestApplyFaultDifferential is the tentpole equivalence: for every
// (grid × turn-model × fault) cell, the online reconfiguration must end
// acyclic, use no more total VCs than a from-scratch RemoveSet on the
// faulted topology, survive the witness drain simulation without
// deadlock (ApplyFault errors on one), and be deterministic run-to-run.
func TestApplyFaultDifferential(t *testing.T) {
	grids := []struct {
		wrap       bool
		cols, rows int
	}{
		{false, 4, 4},
		{false, 5, 4},
		{true, 4, 4},
	}
	for _, gs := range grids {
		g := mustGrid(t, gs.wrap, gs.cols, gs.rows)
		tr := allToAll(t, gs.cols*gs.rows)
		for _, model := range matrixModels {
			d := buildDesign(t, g, tr, model)
			for seed := int64(0); seed < 2; seed++ {
				name := fmt.Sprintf("wrap=%v_%dx%d_%s_seed%d", gs.wrap, gs.cols, gs.rows, model, seed)
				t.Run(name, func(t *testing.T) {
					faults, err := regular.SelectFaults(g, 1, seed)
					if err != nil {
						t.Fatal(err)
					}
					run := func() (*Design, *Delta) {
						st, err := NewState(d)
						if err != nil {
							t.Fatal(err)
						}
						delta, err := st.ApplyFault(context.Background(), faults[0], Options{SimCycles: 50000})
						if err != nil {
							t.Fatalf("ApplyFault(%d): %v", faults[0], err)
						}
						return st.Design(), delta
					}
					got, delta := run()

					if err := got.Verify(); err != nil {
						t.Fatalf("committed design invalid: %v", err)
					}
					if !delta.Acyclic || delta.VCsAdded < 0 {
						t.Fatalf("bad delta: %+v", delta)
					}
					if delta.Downtime.Deadlocked || !delta.Downtime.Simulated {
						t.Fatalf("downtime estimate: %+v", delta.Downtime)
					}

					cold, err := ColdRemove(context.Background(), got, core.Options{})
					if err != nil {
						t.Fatalf("ColdRemove: %v", err)
					}
					// The replay's own additions must never exceed the full
					// from-scratch cost: paying more VCs for a delta than a
					// whole redo would make the online path pointless. The
					// design's cumulative total is NOT bounded by the cold
					// run — a warm start deliberately keeps the pre-fault
					// assignment (no global drain), including VCs a fresh
					// removal of the faulted grid wouldn't spend.
					if delta.VCsAdded > cold.AddedVCs {
						t.Errorf("replay added %d VCs, from-scratch removal only needs %d", delta.VCsAdded, cold.AddedVCs)
					}

					// Determinism: a second run from the same inputs must
					// produce the identical design and delta, byte for byte.
					got2, delta2 := run()
					if !bytes.Equal(designJSON(t, got), designJSON(t, got2)) {
						t.Error("committed designs differ across identical runs")
					}
					dj1, _ := delta.MarshalJSON()
					dj2, _ := delta2.MarshalJSON()
					if !bytes.Equal(dj1, dj2) {
						t.Error("deltas differ across identical runs")
					}
				})
			}
		}
	}
}

// TestApplyFaultSequential drives one state through a seeded fault storm
// until SelectFaults finds no safe fault, verifying the committed design
// after every event — the long-lived-service scenario.
func TestApplyFaultSequential(t *testing.T) {
	g := mustGrid(t, false, 4, 4)
	tr := allToAll(t, 16)
	d := buildDesign(t, g, tr, route.OddEven)
	st, err := NewState(d)
	if err != nil {
		t.Fatal(err)
	}
	live := mustGrid(t, false, 4, 4) // tracks the fault set for SelectFaults
	events := 0
	for {
		faults, err := regular.SelectFaults(live, 1, int64(events))
		if err != nil {
			break // no safe fault left: clean stop
		}
		if _, err := st.ApplyFault(context.Background(), faults[0], Options{SkipSim: true}); err != nil {
			t.Fatalf("event %d fault %d: %v", events, faults[0], err)
		}
		if err := live.Topology.Fault(faults[0]); err != nil {
			t.Fatal(err)
		}
		if err := st.Design().Verify(); err != nil {
			t.Fatalf("event %d: committed design invalid: %v", events, err)
		}
		events++
		if events > 64 {
			t.Fatal("fault storm did not terminate")
		}
	}
	if events == 0 {
		t.Fatal("no fault event ran; storm test is vacuous")
	}
}

// TestApplyFaultRollbackByteIdentical pins the satellite bugfix: a
// failed reconfiguration must leave the design byte-identical and the
// state fully usable — the next event must succeed exactly as if the
// failure never happened.
func TestApplyFaultRollbackByteIdentical(t *testing.T) {
	g := mustGrid(t, false, 4, 4)
	tr := allToAll(t, 16)
	d := buildDesign(t, g, tr, route.MinimalAdaptive)
	st, err := NewState(d)
	if err != nil {
		t.Fatal(err)
	}
	before := designJSON(t, st.Design())
	faults, err := regular.SelectFaults(g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Forced failure: an already-canceled context aborts the replay.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stages []string
	_, err = st.ApplyFault(ctx, faults[0], Options{
		OnStage: func(s string, _ topology.LinkID) { stages = append(stages, s) },
	})
	if !errors.Is(err, nocerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(stages) == 0 || stages[len(stages)-1] != StageRolledBack {
		t.Fatalf("stages = %v, want trailing %q", stages, StageRolledBack)
	}
	if after := designJSON(t, st.Design()); !bytes.Equal(before, after) {
		t.Fatal("failed reconfigure mutated the design")
	}

	// The rescued state must behave exactly like a fresh one.
	deltaRescued, err := st.ApplyFault(context.Background(), faults[0], Options{SkipSim: true})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewState(d)
	if err != nil {
		t.Fatal(err)
	}
	deltaFresh, err := fresh.ApplyFault(context.Background(), faults[0], Options{SkipSim: true})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := deltaRescued.MarshalJSON()
	fj, _ := deltaFresh.MarshalJSON()
	if !bytes.Equal(rj, fj) {
		t.Fatal("post-rollback event diverges from fresh state")
	}
	if !bytes.Equal(designJSON(t, st.Design()), designJSON(t, fresh.Design())) {
		t.Fatal("post-rollback committed design diverges from fresh state")
	}
}

// TestApplyFaultMidReplayRollback fails an event on its VC limit after
// the replay has broken cycles in the live CDG, then applies the same
// fault with no limit: the delta and the design must be byte-identical
// to those of a state that never failed. A committed event comes first,
// so the CDG rebuilt after the rollback covers duplicate VCs, emptied
// pseudo-flow slots and appended ones.
func TestApplyFaultMidReplayRollback(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		g := mustGrid(t, wrap, 6, 6)
		d := buildDesign(t, g, allToAll(t, 36), route.MinimalAdaptive)
		rollbacks := 0
		for seed := int64(0); seed < 8 && rollbacks < 2; seed++ {
			faults, err := regular.SelectFaults(g, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			first, second := faults[0], faults[1]
			apply := func(st *State, link topology.LinkID, opts Options) ([]byte, error) {
				t.Helper()
				opts.SkipSim = true
				delta, err := st.ApplyFault(context.Background(), link, opts)
				if err != nil {
					return nil, err
				}
				data, err := delta.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return data, nil
			}
			fresh, err := NewState(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := apply(fresh, first, Options{}); err != nil {
				t.Fatal(err)
			}
			var want *Delta
			if want, err = fresh.ApplyFault(context.Background(), second, Options{SkipSim: true}); err != nil {
				t.Fatal(err)
			}
			if want.Iterations < 2 {
				continue // a limit cannot fail this replay after a break
			}
			wantDelta, _ := want.MarshalJSON()

			st, err := NewState(d)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := apply(st, first, Options{}); err != nil {
				t.Fatal(err)
			}
			before := designJSON(t, st.Design())
			breaks := 0
			_, err = apply(st, second, Options{
				VCLimit: want.VCsAdded - 1,
				OnBreak: func(core.BreakRecord) { breaks++ },
			})
			if !errors.Is(err, nocerr.ErrVCLimit) {
				t.Fatalf("wrap=%v seed %d: err = %v, want ErrVCLimit", wrap, seed, err)
			}
			if breaks == 0 {
				t.Fatalf("wrap=%v seed %d: the limit failed the replay before any break", wrap, seed)
			}
			if !bytes.Equal(before, designJSON(t, st.Design())) {
				t.Fatalf("wrap=%v seed %d: failed event mutated the design", wrap, seed)
			}
			got, err := apply(st, second, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantDelta) {
				t.Fatalf("wrap=%v seed %d: delta after rollback differs from a fresh state's:\n%s\nwant:\n%s", wrap, seed, got, wantDelta)
			}
			if !bytes.Equal(designJSON(t, st.Design()), designJSON(t, fresh.Design())) {
				t.Fatalf("wrap=%v seed %d: design after rollback differs from a fresh state's", wrap, seed)
			}
			rollbacks++
		}
		if rollbacks == 0 {
			t.Fatalf("wrap=%v: no seed gave a replay of two or more breaks", wrap)
		}
	}
}

// TestApplyFaultInputValidation covers the error surface.
func TestApplyFaultInputValidation(t *testing.T) {
	g := mustGrid(t, false, 3, 3)
	tr := allToAll(t, 9)
	d := buildDesign(t, g, tr, route.OddEven)
	st, err := NewState(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyFault(context.Background(), topology.LinkID(9999), Options{}); !errors.Is(err, nocerr.ErrNotFound) {
		t.Errorf("unknown link: err = %v, want ErrNotFound", err)
	}
	faults, err := regular.SelectFaults(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyFault(context.Background(), faults[0], Options{SkipSim: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyFault(context.Background(), faults[0], Options{}); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("re-fault: err = %v, want ErrInvalidInput", err)
	}
}

// TestNewStateRejectsCyclicDesign pins the precondition.
func TestNewStateRejectsCyclicDesign(t *testing.T) {
	g := mustGrid(t, false, 4, 4)
	tr := allToAll(t, 16)
	set, err := route.GridRoutes(g.Topology, tr, g.Spec(), route.MinimalAdaptive, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := &Design{Grid: g.Spec(), Model: route.MinimalAdaptive, MaxPaths: 2,
		Topology: g.Topology.Clone(), Traffic: tr.Clone(), Routes: set}
	if _, err := NewState(d); !errors.Is(err, nocerr.ErrCyclicCDG) {
		t.Fatalf("err = %v, want ErrCyclicCDG (min-adaptive 4x4 is cyclic pre-removal)", err)
	}
}

// TestDesignJSONRoundTrip pins the bundle schema.
func TestDesignJSONRoundTrip(t *testing.T) {
	g := mustGrid(t, true, 4, 4)
	tr := allToAll(t, 16)
	d := buildDesign(t, g, tr, route.WestFirst)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(designJSON(t, got), designJSON(t, d)) {
		t.Fatal("design did not round-trip byte-identically")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDesign(bytes.NewReader([]byte(`{"version":2}`))); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("version 2: err = %v, want ErrInvalidInput", err)
	}
}
