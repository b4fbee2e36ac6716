package wormhole

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// NewAdaptive builds a simulator with per-hop adaptive output selection
// over a multi-candidate route set: at every switch the head flit picks
// among the flow's permitted next channels (the union of the set's path
// transitions) under Config.Adaptive — first-free or least-congested —
// and the worm's body follows the committed choice. The decision
// procedure is seeded and deterministic: candidate lists are sorted,
// ties break to the lowest channel, and the only randomness is the
// injection process already driven by Config.Seed. A hop with a single
// permitted next channel commits on entry, so a one-path set steps
// exactly like New on the equivalent table.
//
// The set must be valid for (top, g) — every flow has at least one path,
// all over provisioned, non-faulted channels (see route.RouteSet
// Validate). Worms cannot wander: every permitted transition comes from
// some src→dst path of the set, and once the set's union CDG is acyclic
// (post-removal) the per-flow transition graph is a DAG, so any walk the
// selector takes terminates at the destination.
func NewAdaptive(top *topology.Topology, g *traffic.Graph, set *route.RouteSet, cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if err := set.Validate(top, g); err != nil {
		return nil, err
	}
	s, err := newSkeleton(top, g, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Adaptive == LeastCongested {
		s.linkOcc = make([]int32, top.NumLinks())
	}
	for _, f := range g.Flows() {
		paths := set.Paths(f.ID)
		idxs := make([][]int32, len(paths))
		for i, p := range paths {
			if len(p) == 0 && len(paths) > 1 {
				return nil, fmt.Errorf("wormhole: flow %d mixes local and fabric paths", f.ID)
			}
			idxs[i] = make([]int32, len(p))
			for h, ch := range p {
				ci, ok := s.idx[ch]
				if !ok {
					return nil, fmt.Errorf("wormhole: flow %d uses unprovisioned channel %v", f.ID, ch)
				}
				idxs[i][h] = int32(ci)
			}
		}
		if err := s.addFlow(f, idxs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// choose picks a pending head's next channel among the successors of its
// table node, honoring the configured selection policy; -1 means no
// candidate is admissible this cycle. Only free channels qualify (a head
// entering a channel its own packet already owns would fold the worm
// onto itself), and a free channel's buffer is empty, so LeastCongested
// measures congestion on the candidate's *physical link* — flits
// buffered across its other VCs, which compete for the same link
// bandwidth — and ties break to the lowest-ordered candidate.
func (s *Simulator) choose(node int32) int32 {
	best, bestOcc := int32(-1), int32(0)
	for _, e := range s.tab.out(node) {
		if s.chans[e.ch].owner != -1 {
			continue
		}
		if s.cfg.Adaptive == FirstFree {
			return e.ch
		}
		if occ := s.linkOcc[s.chanLink[e.ch]]; best == -1 || occ < bestOcc {
			best, bestOcc = e.ch, occ
		}
	}
	return best
}
