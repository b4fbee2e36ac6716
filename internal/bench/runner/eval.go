package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Evaluate synthesizes an application-specific topology for the graph at
// the given switch count, runs deadlock removal in the paper's
// configuration and the resource-ordering baseline, and reports the
// design fields of the cell: the design's shape, both VC overheads and
// the removal's wall time.
func Evaluate(g *traffic.Graph, switchCount int) (Result, error) {
	de, err := buildSynth(context.Background(), g, switchCount, core.Options{})
	if err != nil {
		return Result{}, err
	}
	return de.res, nil
}

// buildSynth synthesizes and evaluates an application-specific design
// without the simulation stage.
func buildSynth(ctx context.Context, g *traffic.Graph, switchCount int, opts core.Options) (*designEval, error) {
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
func buildRegular(ctx context.Context, grid *regular.Grid, g *traffic.Graph, opts core.Options) (*designEval, error) {
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		return nil, fmt.Errorf("runner: DOR routes for %s: %w", grid.Topology.Name, err)
	}
	return buildRouted(ctx, g, grid.Topology, tab, opts, grid.Topology.Name)
}

// designEval is a fully built and removed design: the seed-independent
// fields every cell of the design reports (res, without Job, Sim and
// Certify) plus everything the simulation stage needs to instantiate
// pre- and post-removal simulators. One designEval serves every
// seed/load variant of a cell group — the design cache the grouped
// scheduler keys on. A design the removal proved acyclic is its own
// post-removal design: its pre and post halves alias one topology and
// one table or set, which nothing downstream modifies.
type designEval struct {
	res Result
	g   *traffic.Graph

	// Single-path (table-routed) designs.
	preTab, postTab *route.Table
	// Adaptive (route-set) designs; nil tables above when set.
	preSet, postSet *route.RouteSet

	preTop, postTop *topology.Topology
	adaptive        bool
}

// buildAdaptive evaluates a regular-topology preset under an adaptive
// routing function: a multi-candidate route set generated by the given
// turn model (routing around any masked link faults) with at most
// maxPaths candidates per flow, deadlock removal over the union CDG, and
// the resource-ordering baseline's count over every candidate path. No
// simulation.
func buildAdaptive(ctx context.Context, grid *regular.Grid, g *traffic.Graph, model route.TurnModel, maxPaths int, opts core.Options) (*designEval, error) {
	top := grid.Topology
	label := fmt.Sprintf("%s/%s", top.Name, model)
	set, err := route.GridRoutes(top, g, grid.Spec(), model, maxPaths)
	if err != nil {
		return nil, fmt.Errorf("runner: %s routes for %s: %w", model, top.Name, err)
	}
	start := time.Now()
	rm, err := core.RemoveSetContext(ctx, top, set, opts)
	if err != nil {
		return nil, fmt.Errorf("runner: remove %s: %w", label, err)
	}
	de := &designEval{g: g, preSet: set, postSet: rm.Routes, preTop: top, postTop: rm.Topology, adaptive: true}
	de.res = Result{
		Cores:          g.NumCores(),
		Links:          top.NumLinks(),
		MaxRouteLen:    set.MaxLen(),
		InitialAcyclic: rm.InitialAcyclic,
		RemovalVCs:     rm.AddedVCs,
		Breaks:         rm.Iterations,
		Paths:          set.TotalPaths(),
		RemovalTime:    time.Since(start),
	}
	if de.res.OrderingVCs, err = ordering.AddedVCsSet(top, set); err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	return de, nil
}

// buildRouted evaluates a fully routed single-path design: removal and
// the ordering baseline. No simulation.
func buildRouted(ctx context.Context, g *traffic.Graph, top *topology.Topology, tab *route.Table, opts core.Options, label string) (*designEval, error) {
	start := time.Now()
	rm, err := core.RemoveContext(ctx, top, tab, opts)
	if err != nil {
		return nil, fmt.Errorf("runner: remove %s: %w", label, err)
	}
	de := &designEval{g: g, preTab: tab, postTab: rm.Routes, preTop: top, postTop: rm.Topology}
	de.res = Result{
		Cores:          g.NumCores(),
		Links:          top.NumLinks(),
		MaxRouteLen:    tab.MaxLen(),
		InitialAcyclic: rm.InitialAcyclic,
		RemovalVCs:     rm.AddedVCs,
		Breaks:         rm.Iterations,
		RemovalTime:    time.Since(start),
	}
	if de.res.OrderingVCs, err = ordering.AddedVCs(top, tab); err != nil {
		return nil, fmt.Errorf("runner: ordering %s: %w", label, err)
	}
	return de, nil
}
