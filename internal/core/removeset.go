package core

import (
	"context"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// SetResult reports what RemoveSet did: a topology and route set whose
// union CDG is acyclic. They are the caller's own when the input was
// proven acyclic up front, and modified deep copies otherwise; the inputs
// are never written. Break records are translated back to real flow IDs
// (a flow appears once per break even when several of its candidate
// paths were rerouted).
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
// the break loop runs on the flattened table unchanged — the CDG it
// breaks is the union of the set's permitted channel transitions — and
// the rewritten paths are folded back into a RouteSet. A set with one
// path per flow goes through the exact same code path as Remove on the
// equivalent table and produces an identical break sequence (pinned by
// differential tests). A set whose union CDG is proven acyclic up front
// is answered with the inputs themselves, without flattening, as in
// RemoveContext. The inputs are never written. Cancellation is
// cooperative, as in RemoveContext.
func RemoveSetContext(ctx context.Context, top *topology.Topology, set *route.RouteSet, opts Options) (*SetResult, error) {
	if ok, _ := cdg.ProveAcyclic(top, setPaths(set)); ok {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		return &SetResult{Topology: top, Routes: set, InitialAcyclic: true}, nil
	}
	// The flattened table is a fresh copy, so the loop rewrites it in
	// place and Unflatten adopts its paths: the set is copied once.
	tab, refs := set.Flatten()
	res, err := remove(ctx, top.Clone(), tab, opts)
	if err != nil {
		return nil, err
	}
	return foldSet(res, refs, set.NumFlows())
}

// foldSet turns a removal run on a set's flattened table into a
// SetResult: the rewritten paths fold back into a RouteSet of numFlows
// flows, and the break records' pseudo-flow reroute IDs become real
// flow IDs.
func foldSet(res *Result, refs []route.PathRef, numFlows int) (*SetResult, error) {
	out, err := route.Unflatten(res.Routes, refs, numFlows)
	if err != nil {
		return nil, err
	}
	for i := range res.Breaks {
		res.Breaks[i].Reroutes = route.RealFlows(res.Breaks[i].Reroutes, refs)
	}
	return &SetResult{
		Topology:       res.Topology,
		Routes:         out,
		AddedVCs:       res.AddedVCs,
		Iterations:     res.Iterations,
		InitialAcyclic: res.InitialAcyclic,
		Breaks:         res.Breaks,
	}, nil
}

// setPaths walks a set's candidate paths in Flatten's pseudo-flow order,
// each under its pseudo-flow ID.
func setPaths(set *route.RouteSet) cdg.Paths {
	return func(visit func(int, []topology.Channel)) {
		pseudo := 0
		for f := 0; f < set.NumFlows(); f++ {
			for _, p := range route.PathsOf(set, f) {
				visit(pseudo, p)
				pseudo++
			}
		}
	}
}

// DeadlockFreeSet reports whether the route set's union CDG is acyclic,
// as DeadlockFree does for a table; an error names a pseudo-flow ID, as
// cdg.BuildSet's would.
func DeadlockFreeSet(top *topology.Topology, set *route.RouteSet) (bool, error) {
	return cdg.ProveAcyclic(top, setPaths(set))
}

// VerifySet checks a SetResult the way Result.Verify checks a Result:
// acyclic union CDG and only provisioned channels on every path.
func (r *SetResult) VerifySet() error {
	return verify(r.Topology, setPaths(r.Routes))
}
