package wormhole

import (
	"fmt"
	"sort"

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
// injection process already driven by Config.Seed.
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
	s, maxBW, err := newSkeleton(top, g, cfg)
	if err != nil {
		return nil, err
	}
	s.adaptive = true
	if cfg.Adaptive == LeastCongested {
		s.linkOcc = make([]int32, top.NumLinks())
	}
	for _, f := range g.Flows() {
		paths := set.Paths(f.ID)
		fs := flowState{
			id:       f.ID,
			probBits: uint64(cfg.LoadFactor * f.Bandwidth / maxBW * (1 << 63)),
			bw:       f.Bandwidth,
			flits:    f.PacketFlits,
			adj:      make(map[int32][]int32),
			final:    make(map[int32]bool),
			local:    len(paths) == 1 && len(paths[0]) == 0,
		}
		firstSet := make(map[int32]bool)
		for _, p := range paths {
			if len(p) == 0 {
				if !fs.local {
					return nil, fmt.Errorf("wormhole: flow %d mixes local and fabric paths", f.ID)
				}
				continue
			}
			if len(p) > fs.maxLen {
				fs.maxLen = len(p)
			}
			idxs := make([]int32, len(p))
			for i, ch := range p {
				ci, ok := s.idx[ch]
				if !ok {
					return nil, fmt.Errorf("wormhole: flow %d uses unprovisioned channel %v", f.ID, ch)
				}
				idxs[i] = int32(ci)
			}
			firstSet[idxs[0]] = true
			fs.final[idxs[len(idxs)-1]] = true
			for i := 0; i+1 < len(idxs); i++ {
				fs.adj[idxs[i]] = appendUnique(fs.adj[idxs[i]], idxs[i+1])
			}
		}
		// A channel that ends some path cannot also continue another:
		// the head must know on entry whether the worm ejects there.
		for ci := range fs.final {
			if len(fs.adj[ci]) > 0 {
				return nil, fmt.Errorf("wormhole: flow %d channel %d is both final and transitive in its route set", f.ID, ci)
			}
		}
		fs.first = make([]int32, 0, len(firstSet))
		for ci := range firstSet {
			fs.first = append(fs.first, ci)
		}
		sort.Slice(fs.first, func(i, j int) bool { return fs.first[i] < fs.first[j] })
		for _, cands := range fs.adj {
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		}
		s.flows = append(s.flows, fs)
	}
	s.finishInit()
	return s, nil
}

func appendUnique(s []int32, v int32) []int32 {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// chooseAdaptive picks the next channel for a head flit among the sorted
// candidates, honoring the configured selection policy; -1 means no
// candidate is admissible this cycle. Only free channels qualify (a head
// entering a channel its own packet already owns would fold the worm
// onto itself). An admissible channel's own buffer is necessarily empty,
// so LeastCongested measures congestion on the candidate's *physical
// link* — flits buffered across its other VCs, which compete for the
// same link bandwidth — and ties break to the lowest-ordered candidate.
func (s *Simulator) chooseAdaptive(cands []int32, fr flitRef) int {
	best, bestOcc := -1, int32(0)
	for _, nc := range cands {
		ni := int(nc)
		// admissible alone would admit a channel this worm already owns
		// (that allowance exists for body flits following their head); a
		// head re-entering its own channel would land behind its own
		// body, so adaptive choice is restricted to free channels.
		if s.chans[ni].owner != -1 || !s.admissible(ni, fr) {
			continue
		}
		if s.cfg.Adaptive == FirstFree {
			return ni
		}
		if occ := s.linkOcc[s.chanLink[ni]]; best == -1 || occ < bestOcc {
			best, bestOcc = ni, occ
		}
	}
	return best
}
