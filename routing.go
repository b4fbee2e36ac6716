package nocdr

import (
	"context"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Adaptive routing: multi-candidate route sets, turn-model generators,
// link-fault masking, and the adaptive wormhole engine. The paper's
// removal method takes an *arbitrary* route set and makes it
// deadlock-free; this surface supplies the interesting arbitrary sets —
// turn-model-restricted and fully-adaptive minimal routing, regenerated
// around link faults — and the simulator that exercises them per hop.

type (
	// RouteSet holds one or more candidate paths per flow — the unit the
	// adaptive pipeline routes, removes deadlocks from, and simulates.
	RouteSet = route.RouteSet
	// PathRef identifies one candidate path of a RouteSet.
	PathRef = route.PathRef
	// TurnModel names a routing function for 2D grids (see GridRoutes).
	TurnModel = route.TurnModel
	// GridSpec describes a 2D grid layout for the turn-model generators.
	GridSpec = route.GridSpec
	// SetRemovalResult reports a RemoveDeadlocksSet outcome.
	SetRemovalResult = core.SetResult
	// AdaptiveSelection is the per-hop output policy of the adaptive
	// simulator (FirstFree or LeastCongested).
	AdaptiveSelection = wormhole.AdaptiveSelection
)

// Re-exported turn models and adaptive selection policies.
const (
	RoutingDOR           = route.DOR
	RoutingWestFirst     = route.WestFirst
	RoutingNorthLast     = route.NorthLast
	RoutingNegativeFirst = route.NegativeFirst
	RoutingOddEven       = route.OddEven
	RoutingMinAdaptive   = route.MinimalAdaptive

	FirstFree      = wormhole.FirstFree
	LeastCongested = wormhole.LeastCongested
)

// NewRouteSet returns an empty route set sized for n flows.
func NewRouteSet(n int) *RouteSet { return route.NewRouteSet(n) }

// RouteSetFromTable lifts a single-path table into a RouteSet (one
// candidate per flow).
func RouteSetFromTable(tab *RouteTable) *RouteSet { return route.FromTable(tab) }

// ParseTurnModel resolves a canonical turn-model name ("dor",
// "west-first", "north-last", "negative-first", "odd-even",
// "min-adaptive"); the empty string means DOR.
func ParseTurnModel(s string) (TurnModel, error) { return route.ParseTurnModel(s) }

// TurnModelNames lists the canonical turn-model names.
func TurnModelNames() []string { return route.TurnModelNames() }

// ParseAdaptiveSelection resolves "first-free" / "least-congested"; the
// empty string means FirstFree.
func ParseAdaptiveSelection(s string) (AdaptiveSelection, error) {
	sel, err := wormhole.ParseAdaptiveSelection(s)
	return sel, wrapErr(err)
}

// GridRoutes generates a multi-candidate route set for every flow of g
// on a regular grid under the given turn model: up to maxPaths minimal
// paths per flow (0 = the library default of 4; a cap above 64 is
// ErrInvalidInput), avoiding faulted links, with a deterministic
// shortest-path escape when faults break every permitted minimal path.
// See the route package documentation for the turn-model semantics.
func GridRoutes(grid *Grid, g *TrafficGraph, model TurnModel, maxPaths int) (*RouteSet, error) {
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, maxPaths)
	return set, wrapErr(err)
}

// SelectFaults picks n links of the grid to fail, seeded and
// deterministic, never disconnecting the network; pass the result to
// Topology.Fault and regenerate routes to build a fault scenario.
func SelectFaults(grid *Grid, n int, seed int64) ([]LinkID, error) {
	ids, err := regular.SelectFaults(grid, n, seed)
	return ids, wrapErr(err)
}

// BuildCDGSet constructs the channel dependency graph over the union of
// the set's permitted channel transitions. Edge attributions name
// pseudo-flows (one per candidate path); the returned refs map them back
// to (flow, path index).
func (s *Session) BuildCDGSet(top *Topology, set *RouteSet) (*CDG, []PathRef, error) {
	c, refs, err := cdg.BuildSet(top, set)
	return c, refs, wrapErr(err)
}

// DeadlockFreeSet reports whether the route set's union CDG is acyclic.
func (s *Session) DeadlockFreeSet(top *Topology, set *RouteSet) (bool, error) {
	free, err := core.DeadlockFreeSet(top, set)
	return free, wrapErr(err)
}

// RemoveDeadlocksSet runs the removal algorithm on an adaptive route
// set under the Session's policy: the set is flattened into one
// pseudo-flow per candidate path, Algorithm 1 runs on the flattened
// table unchanged, and the rewritten paths fold back into a RouteSet
// whose union CDG is acyclic. A single-path set produces the identical
// break sequence RemoveDeadlocks would. Inputs are never mutated.
func (s *Session) RemoveDeadlocksSet(ctx context.Context, top *Topology, set *RouteSet) (*SetRemovalResult, error) {
	res, err := core.RemoveSetContext(ctx, top, set, s.removalOptions())
	if err != nil {
		return nil, wrapErr(err)
	}
	// As in RemoveDeadlocks: a proven design comes back as the inputs.
	if res.Topology == top {
		res.Topology, res.Routes = top.Clone(), set.Clone()
	}
	return res, nil
}

// NewAdaptiveSimulator builds a flit-level simulator with per-hop
// adaptive output selection over the set's permitted next channels,
// wiring the Session's Event feed into the epoch callback.
func (s *Session) NewAdaptiveSimulator(top *Topology, g *TrafficGraph, set *RouteSet, cfg SimConfig) (*Simulator, error) {
	sim, err := wormhole.NewAdaptive(top, g, set, s.simConfig(cfg))
	return sim, wrapErr(err)
}

// SimulateAdaptive builds an adaptive simulator and runs it to
// completion, honoring ctx inside the flit-stepping loop.
func (s *Session) SimulateAdaptive(ctx context.Context, top *Topology, g *TrafficGraph, set *RouteSet, cfg SimConfig) (*SimStats, error) {
	sim, err := wormhole.NewAdaptive(top, g, set, s.simConfig(cfg))
	if err != nil {
		return nil, wrapErr(err)
	}
	st, err := sim.RunContext(ctx)
	return st, wrapErr(err)
}
