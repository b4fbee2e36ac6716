package core

import (
	"context"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// ResumeContext is the warm-start half of online reconfiguration: it
// runs the Algorithm 1 break loop against a CDG that already exists —
// typically one carried over from a previous removal and just perturbed
// by a reroute batch — instead of building one from scratch. The
// existing VC assignment is kept; only cycles the perturbation
// introduced are broken, so a fault that displaces a handful of flows
// costs a handful of SCC-scoped searches rather than a full rebuild.
//
// Unlike RemoveContext, the inputs are mutated IN PLACE: top and tab
// must be working copies the caller can afford to lose, and m must be
// the incremental CDG built over exactly that pair (after the caller's
// reroutes have been applied to all three). On any error the trio is
// left mid-mutation — callers needing atomicity work on copies of the
// topology and routes and, on failure, drop all three and rebuild the
// CDG from the inputs they kept.
//
// The returned Result aliases top and tab. AddedVCs counts only the VCs
// this replay added — the reconfiguration delta — not the ones the
// original removal already spent. opts.VCLimit likewise bounds the
// replay's own additions.
func ResumeContext(ctx context.Context, top *topology.Topology, tab *route.Table, m *cdg.Incremental, opts Options) (*Result, error) {
	res := &Result{Topology: top, Routes: tab}
	for {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		cycle := selectCycle(m, opts.Selection)
		if cycle == nil {
			res.InitialAcyclic = res.Iterations == 0
			return res, nil
		}
		if err := res.applyBreak(cycle, opts, m); err != nil {
			return nil, err
		}
	}
}
