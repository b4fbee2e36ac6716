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
		parts := make([][]int, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, []int{i})
		}
		return parts
	}
	rng := rand.New(rand.NewSource(seed))
	cap := (n + nParts - 1) / nParts

	// Symmetric affinity matrix, flattened row-major, and each core's
	// nonzero row entries in ascending partner order. Summing a row over
	// its nonzero entries in that order gives the same floats as the dense
	// scan, since every skipped term is +0.
	aff := make([]float64, n*n)
	for _, f := range g.Flows() {
		aff[int(f.Src)*n+int(f.Dst)] += f.Bandwidth
		aff[int(f.Dst)*n+int(f.Src)] += f.Bandwidth
	}
	type partner struct {
		core int
		w    float64
	}
	nbrs := make([][]partner, n)
	volume := make([]float64, n)
	for i := 0; i < n; i++ {
		for j, w := range aff[i*n : (i+1)*n] {
			if w != 0 {
				nbrs[i] = append(nbrs[i], partner{core: j, w: w})
				volume[i] += w
			}
		}
	}

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
		for _, e := range nbrs[core] {
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
			curGain := gain[cur] - aff[core*n+core]
			best, bestGain := cur, curGain
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

	parts := make([][]int, nParts)
	for core, p := range assign {
		parts[p] = append(parts[p], core)
	}
	// Drop empty clusters (possible when refinement empties one).
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			slices.Sort(p)
			out = append(out, p)
		}
	}
	return out
}

// interClusterTraffic sums flow bandwidth between clusters given the
// per-core cluster assignment.
func interClusterTraffic(g *traffic.Graph, assign []int, nParts int) [][]float64 {
	m := make([][]float64, nParts)
	for i := range m {
		m[i] = make([]float64, nParts)
	}
	for _, f := range g.Flows() {
		a, b := assign[f.Src], assign[f.Dst]
		if a != b {
			m[a][b] += f.Bandwidth
		}
	}
	return m
}
