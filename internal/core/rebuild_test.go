package core

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// removeRebuild is the differential oracle of the break loop: Algorithm 1
// as the paper states it, with no acyclic first pass, a CDG built from
// scratch on every break, the cycle picked through cdg.CDG's exported
// queries, and Algorithm 2 and the break scanning every route. It returns
// the production loop's error texts. RemoveContext must match it break
// for break.
func removeRebuild(ctx context.Context, top *topology.Topology, tab *route.Table, opts Options) (*Result, error) {
	res := &Result{Topology: top.Clone(), Routes: tab.Clone()}
	for {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		g, err := cdg.Build(res.Topology, res.Routes)
		if err != nil {
			return nil, err
		}
		cycle := g.SmallestCycle()
		if opts.Selection == FirstFound {
			cycle = nil
			if cyclic := g.CyclicChannels(); len(cyclic) > 0 {
				cycle = g.SmallestCycleThrough(cyclic[0])
			}
		}
		if cycle == nil {
			res.InitialAcyclic = res.Iterations == 0
			return res, nil
		}
		if len(cycle) < 2 {
			return nil, fmt.Errorf("core: degenerate self-dependency on channel %v (route repeats a channel?)", cycle)
		}
		if res.Iterations >= opts.maxIterations() {
			return nil, fmt.Errorf("%w: cycle remains after %d breaks (MaxIterations reached)", nocerr.ErrCyclicCDG, res.Iterations)
		}
		c, err := chooseBreak(cycle, res.Routes, opts.Policy, nil)
		if err != nil {
			return nil, err
		}
		rec, _, err := breakCycle(res.Topology, res.Routes, cycle, c.edge, c.dir, c.cost, nil)
		if err != nil {
			return nil, err
		}
		if opts.VCLimit > 0 && res.AddedVCs+len(rec.NewChannels) > opts.VCLimit {
			return nil, fmt.Errorf("%w: break %d needs %d more VC(s) on top of %d, limit %d",
				nocerr.ErrVCLimit, res.Iterations+1, len(rec.NewChannels), res.AddedVCs, opts.VCLimit)
		}
		res.Breaks = append(res.Breaks, *rec)
		res.AddedVCs += len(rec.NewChannels)
		res.Iterations++
	}
}

// removeRebuildSet is removeRebuild on a route set, flattened into
// pseudo-flows and folded back as RemoveSetContext does.
func removeRebuildSet(ctx context.Context, top *topology.Topology, set *route.RouteSet, opts Options) (*SetResult, error) {
	tab, refs := set.Flatten()
	res, err := removeRebuild(ctx, top, tab, opts)
	if err != nil {
		return nil, err
	}
	return foldSet(res, refs, set.NumFlows())
}
