// Package synth generates application-specific NoC topologies from a
// communication graph, standing in for the floorplan-aware synthesis tool
// the paper uses to produce its input designs (reference [9], Murali et
// al., ICCAD 2006). The paper's removal algorithm treats synthesis as a
// black box — it only needs *a* custom irregular topology with fixed
// routes — so this substitute focuses on the two properties that drive
// the evaluation's shape: traffic-driven core clustering (switch count is
// the sweep variable of Figures 8–9) and degree-budgeted irregular link
// insertion (sparse tree-like fabrics at low switch counts, chordal
// fabrics at high ones).
package synth

import (
	"math/rand"
	"slices"

	"github.com/nocdr/nocdr/internal/traffic"
)

// partition assigns every core to one of nParts clusters, balancing
// cluster sizes while keeping heavily communicating cores together.
// Greedy seeding by descending traffic volume is followed by
// Kernighan–Lin-style single-move refinement. Deterministic for a fixed
// seed.
func partition(g *traffic.Graph, nParts int, seed int64) [][]int {
	n := g.NumCores()
	if nParts >= n {
		// One core per cluster (extra clusters stay empty and are dropped).
		cores := make([]int, n)
		parts := make([][]int, n)
		for i := range parts {
			cores[i] = i
			parts[i] = cores[i : i+1 : i+1]
		}
		return parts
	}
	rng := rand.New(rand.NewSource(seed))
	cap := (n + nParts - 1) / nParts
	start, nbrs, volume := affinities(g)

	// Order cores by total traffic, heaviest first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case volume[a] > volume[b]:
			return -1
		case volume[a] < volume[b]:
			return 1
		}
		return a - b
	})

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	size := make([]int, nParts)
	// gains sets gain[p] to core's summed affinity with the cores now in
	// cluster p, in one pass over its partners.
	gain := make([]float64, nParts)
	gains := func(core int) {
		clear(gain)
		for _, e := range nbrs[start[core]:start[core+1]] {
			if p := assign[e.core]; p >= 0 {
				gain[p] += e.w
			}
		}
	}
	// Seed every cluster with one core first (the nParts heaviest), so a
	// request for S switches always yields S non-empty clusters; then fill
	// greedily by affinity.
	for p := 0; p < nParts && p < len(order); p++ {
		assign[order[p]] = p
		size[p] = 1
	}
	for _, core := range order[nParts:] {
		gains(core)
		best, bestGain := -1, -1.0
		for p := 0; p < nParts; p++ {
			if size[p] >= cap {
				continue
			}
			score := gain[p]
			// Light size penalty keeps early heavy cores from piling up.
			score -= 0.01 * volume[core] * float64(size[p])
			if best == -1 || score > bestGain {
				best, bestGain = p, score
			}
		}
		assign[core] = best
		size[best]++
	}

	// Refinement: move single cores to the cluster with the highest
	// affinity gain while capacity allows. A few passes suffice; the rng
	// only shuffles the scan order to avoid pathological sweep artefacts.
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	for pass := 0; pass < 4; pass++ {
		rng.Shuffle(len(cores), func(i, j int) { cores[i], cores[j] = cores[j], cores[i] })
		moved := false
		for _, core := range cores {
			cur := assign[core]
			if size[cur] == 1 {
				continue // never empty a cluster: the switch count is a contract
			}
			gains(core)
			best, bestGain := cur, gain[cur]
			for p := 0; p < nParts; p++ {
				if p == cur || size[p] >= cap {
					continue
				}
				if gain[p] > bestGain {
					best, bestGain = p, gain[p]
				}
			}
			if best != cur {
				size[cur]--
				size[best]++
				assign[core] = best
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	// Each cluster's cores in ascending order, carved from one array.
	// Seeding fills every cluster and refinement never empties one, so
	// all nParts are returned.
	backing := make([]int, n)
	parts := make([][]int, nParts)
	lo := 0
	for p, sz := range size {
		parts[p] = backing[lo : lo : lo+sz]
		lo += sz
	}
	for core, p := range assign {
		parts[p] = append(parts[p], core)
	}
	return parts
}

// partner is a core's affinity with another core: the bandwidth of the
// flows between them, both ways.
type partner struct {
	core int
	w    float64
}

// affinities returns every core's nonzero affinities, core i's as
// nbrs[start[i]:start[i+1]] in ascending partner order, and each core's
// volume, its affinities summed in that order. A pair's affinity sums the
// bandwidths of the flows between the two cores in flow-ID order, and
// the volume skips only zero terms, so both are the floats a dense n×n
// matrix, filled in flow-ID order and summed row by row, would hold. No
// core has affinity with itself: Validate rejects self-flows.
func affinities(g *traffic.Graph) (start []int, nbrs []partner, volume []float64) {
	n, nf := g.NumCores(), g.NumFlows()
	// Core i's incident flows, as (other end, bandwidth) in flow-ID
	// order, are inc[at[i]:at[i+1]].
	at := make([]int, n+1)
	for id := range nf {
		f := g.Flow(id)
		at[f.Src+1]++
		at[f.Dst+1]++
	}
	for i := range n {
		at[i+1] += at[i]
	}
	inc := make([]partner, at[n])
	next := slices.Clone(at[:n])
	for id := range nf {
		f := g.Flow(id)
		inc[next[f.Src]] = partner{core: int(f.Dst), w: f.Bandwidth}
		next[f.Src]++
		inc[next[f.Dst]] = partner{core: int(f.Src), w: f.Bandwidth}
		next[f.Dst]++
	}

	// acc[p] sums core i's flows with p; every bandwidth is positive, so
	// acc[p] == 0 means p is not yet among i's partners.
	acc := make([]float64, n)
	start = make([]int, n+1)
	nbrs = make([]partner, 0, len(inc))
	volume = make([]float64, n)
	for i := range n {
		lo := len(nbrs)
		for _, e := range inc[at[i]:at[i+1]] {
			if acc[e.core] == 0 {
				nbrs = append(nbrs, partner{core: e.core})
			}
			acc[e.core] += e.w
		}
		mine := nbrs[lo:]
		slices.SortFunc(mine, func(a, b partner) int { return a.core - b.core })
		for k := range mine {
			mine[k].w = acc[mine[k].core]
			acc[mine[k].core] = 0
			volume[i] += mine[k].w
		}
		start[i+1] = len(nbrs)
	}
	return start, nbrs, volume
}

// interClusterTraffic sums flow bandwidth between clusters given the
// per-core cluster assignment; entry a*nParts+b is the traffic from
// cluster a to cluster b.
func interClusterTraffic(g *traffic.Graph, assign []int, nParts int) []float64 {
	m := make([]float64, nParts*nParts)
	for id := range g.NumFlows() {
		f := g.Flow(id)
		if a, b := assign[f.Src], assign[f.Dst]; a != b {
			m[a*nParts+b] += f.Bandwidth
		}
	}
	return m
}
