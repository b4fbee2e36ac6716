package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// halfBytes renders one half of a design as JSON, topology then routes.
func halfBytes(t *testing.T, top *topology.Topology, tab *route.Table, set *route.RouteSet) []byte {
	t.Helper()
	var routes any = tab
	if set != nil {
		routes = set
	}
	data, err := json.Marshal([]any{top, routes})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sharedCell builds one design the way runGroup does: a table cell for
// the DOR routing, an adaptive cell otherwise.
func sharedCell(t *testing.T, ctx context.Context, benchmark string, model route.TurnModel) (*designEval, error) {
	t.Helper()
	s, err := parseSpec(benchmark)
	if err != nil {
		t.Fatal(err)
	}
	grid, g, err := s.build()
	if err != nil {
		t.Fatal(err)
	}
	if model == route.DOR {
		return buildRegular(ctx, grid, g, core.Options{})
	}
	return buildAdaptive(ctx, grid, g, model, 0, core.Options{})
}

// TestProvenDesignIsItsOwnPostDesign pins the runner's design for one
// whose CDG the removal proves acyclic up front: nothing is broken, its
// pre and post halves alias one topology and one table or set, and neither
// simulation nor certification changes a byte of it. A cyclic design
// still gets a removed copy, and leaves its input as it was. A done
// context cancels either kind of cell.
func TestProvenDesignIsItsOwnPostDesign(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		benchmark string
		model     route.TurnModel
		proven    bool
	}{
		{"mesh:4x4:transpose", route.WestFirst, true},
		{"mesh:4x4:transpose", route.DOR, true},
		{"torus:4x4:uniform", route.MinimalAdaptive, false},
		{"torus:4x4:uniform", route.DOR, false},
	} {
		name := c.benchmark + "/" + c.model.String()
		de, err := sharedCell(t, ctx, c.benchmark, c.model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if de.res.InitialAcyclic != c.proven {
			t.Fatalf("%s: initially acyclic = %v, want %v", name, de.res.InitialAcyclic, c.proven)
		}
		aliased := [3]bool{de.preTop == de.postTop, de.preTab == de.postTab, de.preSet == de.postSet}
		if c.proven {
			if aliased != [3]bool{true, true, true} {
				t.Fatalf("%s: proven design's halves alias %v, want topology and routes shared", name, aliased)
			}
			if de.res.RemovalVCs != 0 || de.res.Breaks != 0 {
				t.Fatalf("%s: proven design reports %d VCs and %d breaks", name, de.res.RemovalVCs, de.res.Breaks)
			}
		} else {
			// The nil half of a table or adaptive cell compares equal.
			if aliased[0] || (aliased[1] && de.preTab != nil) || (aliased[2] && de.preSet != nil) {
				t.Fatalf("%s: cyclic design's halves alias %v, want fresh copies", name, aliased)
			}
			if de.res.RemovalVCs == 0 {
				t.Fatalf("%s: cyclic design's removal added no VC", name)
			}
		}
		pre := halfBytes(t, de.preTop, de.preTab, de.preSet)
		post := halfBytes(t, de.postTop, de.postTab, de.postSet)
		ce := de.certify()
		sims, err := de.simEvalBatch(ctx, SimParams{Cycles: 2000}, []int64{1, 2}, []float64{0.5}, 1)
		if err != nil {
			t.Fatalf("%s: simulate: %v", name, err)
		}
		for i, sim := range sims {
			if cr := ce.withSim(sim); !cr.Agree {
				t.Fatalf("%s: seed %d: legs disagree: %s", name, i, cr.Mismatch)
			}
		}
		if got := halfBytes(t, de.preTop, de.preTab, de.preSet); !bytes.Equal(got, pre) {
			t.Errorf("%s: pre design changed during simulation and certification", name)
		}
		if got := halfBytes(t, de.postTop, de.postTab, de.postSet); !bytes.Equal(got, post) {
			t.Errorf("%s: post design changed during simulation and certification", name)
		}

		done, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := sharedCell(t, done, c.benchmark, c.model); !errors.Is(err, nocerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: build under a done context: err %v, want canceled", name, err)
		}
	}
}
