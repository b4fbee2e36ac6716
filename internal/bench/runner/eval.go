package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// EvalOptions configures one grid-point evaluation.
type EvalOptions struct {
	Selection core.CycleSelection
	Policy    core.DirectionPolicy
	VCLimit   int
	// MaxPaths caps candidate paths per flow in adaptive evaluations
	// (0 = route.MaxDefaultPaths).
	MaxPaths int
}

// Point is the outcome of evaluating one (traffic graph, switch count)
// design: the synthesized design's shape, the removal algorithm's cost,
// and the resource-ordering baseline's cost on identical inputs. It is
// the unit both the sweep engine and the figure reproductions build on.
type Point struct {
	Links          int
	MaxRouteLen    int
	InitialAcyclic bool
	RemovalVCs     int
	OrderingVCs    int
	Breaks         int
	// Paths is the route set's total candidate-path count (0 for
	// single-path evaluations).
	Paths       int
	RemovalTime time.Duration
}

// Evaluate synthesizes an application-specific topology for the graph at
// the given switch count, runs deadlock removal and the resource-ordering
// baseline, and reports both VC overheads.
func Evaluate(g *traffic.Graph, switchCount int, opts EvalOptions) (Point, error) {
	de, err := buildSynth(context.Background(), g, switchCount, opts)
	if err != nil {
		return Point{}, err
	}
	return de.point, nil
}

// buildSynth synthesizes and evaluates an application-specific design
// without the simulation stage.
func buildSynth(ctx context.Context, g *traffic.Graph, switchCount int, opts EvalOptions) (*designEval, error) {
	des, err := synth.SynthesizeContext(ctx, g, synth.Options{SwitchCount: switchCount})
	if err != nil {
		return nil, fmt.Errorf("runner: synthesize %s @ %d: %w", g.Name, switchCount, err)
	}
	return buildRouted(ctx, g, des.Topology, des.Routes, opts, fmt.Sprintf("%s @ %d", g.Name, switchCount))
}

// buildRegular evaluates a regular-topology preset — a mesh or torus
// under dimension-ordered routes, whose wrap-around dependencies are the
// textbook dateline deadlock — without the simulation stage. There is no
// synthesis step, so the preset carries its own switch count.
func buildRegular(ctx context.Context, grid *regular.Grid, g *traffic.Graph, opts EvalOptions) (*designEval, error) {
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		return nil, fmt.Errorf("runner: DOR routes for %s: %w", grid.Topology.Name, err)
	}
	return buildRouted(ctx, g, grid.Topology, tab, opts, grid.Topology.Name)
}

// designEval is a fully built and removed design: the seed-independent
// evaluation outcome (point) plus everything the simulation stage needs
// to instantiate pre- and post-removal simulators. One designEval serves
// every seed/load variant of a cell group — the design cache the grouped
// scheduler keys on. A design proven acyclic up front is its own
// post-removal design: its pre and post halves alias one topology and
// one table or set, which nothing downstream modifies.
type designEval struct {
	point Point
	g     *traffic.Graph

	// Single-path (table-routed) designs.
	preTab, postTab *route.Table
	// Adaptive (route-set) designs; nil tables above when set.
	preSet, postSet *route.RouteSet

	preTop, postTop *topology.Topology
	initialAcyclic  bool
	adaptive        bool
}

// removalCanceled is the error a removal would return under ctx, for a
// design proven acyclic, whose removal is skipped: a done ctx still
// cancels the cell.
func removalCanceled(ctx context.Context, label string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("runner: remove %s: %w: %w", label, nocerr.ErrCanceled, err)
	}
	return nil
}

// buildAdaptive evaluates a regular-topology preset under an adaptive
// routing function: a multi-candidate route set generated by the given
// turn model (routing around any masked link faults), deadlock removal
// over the union CDG, and the resource-ordering baseline's count over
// every candidate path. No simulation.
func buildAdaptive(ctx context.Context, grid *regular.Grid, g *traffic.Graph, model route.TurnModel, opts EvalOptions) (*designEval, error) {
	top := grid.Topology
	label := fmt.Sprintf("%s/%s", top.Name, model)
	set, err := route.GridRoutes(top, g, grid.Spec(), model, opts.MaxPaths)
	if err != nil {
		return nil, fmt.Errorf("runner: %s routes for %s: %w", model, top.Name, err)
	}
	de := &designEval{g: g, preSet: set, postSet: set, preTop: top, postTop: top, initialAcyclic: true, adaptive: true}
	start := time.Now()
	// Any answer but a proof, an error included, is left to the
	// removal, which reports the error.
	if ok, err := core.DeadlockFreeSet(top, set); ok && err == nil {
		if err := removalCanceled(ctx, label); err != nil {
			return nil, err
		}
	} else {
		rm, err := core.RemoveSetContext(ctx, top, set, opts.removal())
		if err != nil {
			return nil, fmt.Errorf("runner: remove %s: %w", label, err)
		}
		de.postSet, de.postTop, de.initialAcyclic = rm.Routes, rm.Topology, rm.InitialAcyclic
		de.point.RemovalVCs, de.point.Breaks = rm.AddedVCs, rm.Iterations
	}
	p := &de.point
	p.RemovalTime = time.Since(start)
	if p.OrderingVCs, err = ordering.AddedVCsSet(top, set); err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	p.Links = top.NumLinks()
	p.MaxRouteLen = set.MaxLen()
	p.InitialAcyclic = de.initialAcyclic
	p.Paths = set.TotalPaths()
	return de, nil
}

// buildRouted evaluates a fully routed single-path design: removal and
// the ordering baseline. No simulation.
func buildRouted(ctx context.Context, g *traffic.Graph, top *topology.Topology, tab *route.Table, opts EvalOptions, label string) (*designEval, error) {
	de := &designEval{g: g, preTab: tab, postTab: tab, preTop: top, postTop: top, initialAcyclic: true}
	start := time.Now()
	if ok, err := core.DeadlockFree(top, tab); ok && err == nil {
		if err := removalCanceled(ctx, label); err != nil {
			return nil, err
		}
	} else {
		rm, err := core.RemoveContext(ctx, top, tab, opts.removal())
		if err != nil {
			return nil, fmt.Errorf("runner: remove %s: %w", label, err)
		}
		de.postTab, de.postTop, de.initialAcyclic = rm.Routes, rm.Topology, rm.InitialAcyclic
		de.point.RemovalVCs, de.point.Breaks = rm.AddedVCs, rm.Iterations
	}
	p := &de.point
	p.RemovalTime = time.Since(start)
	var err error
	if p.OrderingVCs, err = ordering.AddedVCs(top, tab); err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	p.Links = top.NumLinks()
	p.MaxRouteLen = tab.MaxLen()
	p.InitialAcyclic = de.initialAcyclic
	return de, nil
}

// removal returns the removal options the evaluation runs under.
func (o EvalOptions) removal() core.Options {
	return core.Options{Selection: o.Selection, Policy: o.Policy, VCLimit: o.VCLimit}
}
