package core

import (
	"context"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// SetResult reports what RemoveSet did: modified deep copies of the
// topology and route set whose union CDG is acyclic. Break records are
// translated back to real flow IDs (a flow appears once per break even
// when several of its candidate paths were rerouted).
type SetResult struct {
	Topology *topology.Topology
	Routes   *route.RouteSet
	// AddedVCs, Iterations, InitialAcyclic and Breaks mirror Result.
	AddedVCs       int
	Iterations     int
	InitialAcyclic bool
	Breaks         []BreakRecord
}

// RemoveSetContext runs the paper's Algorithm 1 on an adaptive route
// set: the set is flattened into pseudo-flows (one per candidate path),
// RemoveContext runs on the flattened table unchanged — the CDG it breaks
// is the union of the set's permitted channel transitions — and the
// rewritten paths are folded back into a RouteSet. A set with one path
// per flow goes through the exact same code path as Remove on the
// equivalent table and produces an identical break sequence (pinned by
// differential tests). The inputs are never mutated. Cancellation is
// cooperative, as in RemoveContext.
func RemoveSetContext(ctx context.Context, top *topology.Topology, set *route.RouteSet, opts Options) (*SetResult, error) {
	tab, refs := set.Flatten()
	res, err := RemoveContext(ctx, top, tab, opts)
	if err != nil {
		return nil, err
	}
	out, err := route.Unflatten(res.Routes, refs, set.NumFlows())
	if err != nil {
		return nil, err
	}
	sr := &SetResult{
		Topology:       res.Topology,
		Routes:         out,
		AddedVCs:       res.AddedVCs,
		Iterations:     res.Iterations,
		InitialAcyclic: res.InitialAcyclic,
		Breaks:         res.Breaks,
	}
	// Breaks carry pseudo-flow reroute IDs; translate to real flows.
	for i := range sr.Breaks {
		sr.Breaks[i].Reroutes = route.RealFlows(sr.Breaks[i].Reroutes, refs)
	}
	return sr, nil
}

// DeadlockFreeSet reports whether the route set's union CDG is acyclic.
func DeadlockFreeSet(top *topology.Topology, set *route.RouteSet) (bool, error) {
	tab, _ := set.Flatten()
	return DeadlockFree(top, tab)
}

// VerifySet checks a SetResult the way Result.Verify checks a Result:
// acyclic union CDG and only provisioned channels on every path.
func (r *SetResult) VerifySet() error {
	tab, _ := r.Routes.Flatten()
	tmp := &Result{Topology: r.Topology, Routes: tab}
	return tmp.Verify()
}
