package core

import (
	"fmt"
	"slices"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// CostTable is the per-cycle cost matrix of Algorithm 2 (Table 1 in the
// paper). Rows are the flows taking part in the cycle; columns are the
// cycle's dependency edges (edge i runs cycle[i]→cycle[(i+1)%n]). Entry
// (f, e) is the number of channel vertices that must be duplicated to
// reroute flow f off dependency e, or 0 if flow f does not create e.
type CostTable struct {
	Direction Direction
	Cycle     []topology.Channel
	FlowIDs   []int   // row labels, ascending flow ID
	PerFlow   [][]int // [row][edge]
	Max       []int   // per-edge maximum over rows (the MAX row of Table 1)
	BestCost  int     // minimum of Max — the f_cost / b_cost of Algorithm 1
	BestEdge  int     // first edge position achieving BestCost
}

// BuildCostTable runs Algorithm 2 (FindDepToBreakForward) or its backward
// mirror over one cycle. It returns an error if some cycle edge is not
// created by any flow, which would mean the CDG and the route table are
// out of sync.
func BuildCostTable(dir Direction, cycle []topology.Channel, tab *route.Table) (*CostTable, error) {
	n := len(cycle)
	ct := &CostTable{Direction: dir, Cycle: cycle, Max: make([]int, n)}
	k := newCostKernel(cycle)
	for _, r := range tab.Routes() {
		hops := k.flow(r.Channels)
		if len(hops) == 0 {
			continue // flow creates no dependency of this cycle
		}
		row := make([]int, n)
		for _, h := range hops {
			row[h.edge] = h.cost[dir]
		}
		for e, v := range row {
			ct.Max[e] = max(ct.Max[e], v)
		}
		ct.FlowIDs = append(ct.FlowIDs, r.FlowID)
		ct.PerFlow = append(ct.PerFlow, row)
	}
	if len(ct.FlowIDs) == 0 {
		return nil, errNoCycleFlow(cycle)
	}
	var err error
	if ct.BestEdge, ct.BestCost, err = cheapest(ct.Max, cycle); err != nil {
		return nil, err
	}
	return ct, nil
}

func errNoCycleFlow(cycle []topology.Channel) error {
	return fmt.Errorf("core: no flow creates any dependency of cycle %v", cycle)
}

// cheapest returns the first edge with the least per-edge maximum — the
// f_cost or b_cost of Algorithm 1 — or an error when no flow creates some
// edge.
func cheapest(maxes []int, cycle []topology.Channel) (edge, cost int, err error) {
	cost = -1
	for e, v := range maxes {
		if v == 0 {
			return 0, 0, fmt.Errorf("core: cycle edge %d (%v→%v) created by no flow",
				e, cycle[e], cycle[(e+1)%len(cycle)])
		}
		if cost == -1 || v < cost {
			edge, cost = e, v
		}
	}
	return edge, cost, nil
}

// hopCost is one dependency a route creates on the cycle.
type hopCost struct {
	edge int    // the cycle edge: cycle[edge]→cycle[(edge+1)%n]
	cost [2]int // duplicate-chain lengths (chainBounds), indexed by Direction
}

// costKernel is Algorithm 2's per-flow step, shared by the cost tables,
// the break choice and the break itself. It finds each hop's position on
// the cycle once, with a scan of the cycle, and reads every dependency the
// flow creates on the cycle and what moving the flow off it costs in
// either direction. Its buffers are reused from flow to flow.
//
// The published pseudocode keeps incrementing its counter at every cycle
// vertex on the path, but the paper's own Table 1 shows 0 for (F2, D4) —
// F2 uses channel L4 without creating dependency L4→L1 — so the table
// semantics, implemented here, is: a flow contributes a cost only at the
// edges it creates.
type costKernel struct {
	cycle   []topology.Channel
	repeats bool      // the cycle is a closed walk that visits a channel twice
	pos     []int     // per hop of the current route: the last cycle index of its channel, or -1
	hops    []hopCost // the current route's dependencies on the cycle
}

func newCostKernel(cycle []topology.Channel) *costKernel {
	k := &costKernel{cycle: cycle}
	for i, ch := range cycle {
		if slices.Contains(cycle[i+1:], ch) {
			k.repeats = true
			break
		}
	}
	return k
}

// flow returns the dependencies route chs creates on the cycle, in route
// order. The result is valid until the next call.
//
// For every consecutive route pair (chs[i], chs[i+1]) that is a cycle
// edge, the cost is the length of the duplicate chain needed to move the
// flow off it (see chainBounds): forward it is the contiguous stretch of
// in-cycle channels ending at chs[i] (where the flow "entered the cycle",
// Figure 5); backward it is the stretch starting at chs[i+1] and running
// to where the flow leaves the cycle (Figure 6).
func (k *costKernel) flow(chs []topology.Channel) []hopCost {
	k.positions(chs)
	k.hops = slices.Grow(k.hops[:0], len(chs))
	for i := 0; i+1 < len(chs); i++ {
		e := k.edge(i, chs[i+1])
		if e < 0 {
			continue
		}
		h := hopCost{edge: e}
		for dir := range h.cost {
			lo, hi := chainBounds(Direction(dir), k.pos, i)
			h.cost[dir] = hi - lo + 1
		}
		k.hops = append(k.hops, h)
	}
	return k.hops
}

// positions fills pos for route chs.
func (k *costKernel) positions(chs []topology.Channel) {
	k.pos = slices.Grow(k.pos[:0], len(chs))
	for _, ch := range chs {
		p := len(k.cycle) - 1
		for p >= 0 && k.cycle[p] != ch {
			p--
		}
		k.pos = append(k.pos, p)
	}
}

// edge returns the cycle edge the dependency from hop i to channel next
// is, or -1 when it is none. On a closed walk that repeats a channel, the
// last edge with that channel pair is the one.
func (k *costKernel) edge(i int, next topology.Channel) int {
	p := k.pos[i]
	if p < 0 {
		return -1
	}
	if k.cycle[(p+1)%len(k.cycle)] == next {
		return p
	}
	if k.repeats {
		// p is the channel's last visit, so an earlier edge cannot wrap.
		for e := p - 1; e >= 0; e-- {
			if k.cycle[e] == k.cycle[p] && k.cycle[e+1] == next {
				return e
			}
		}
	}
	return -1
}

// chainBounds returns the inclusive route-index range [lo, hi] of the
// channels that must be duplicated to move a route off the dependency it
// creates at position i (chs[i]→chs[i+1]), given each hop's cycle
// position (-1 off the cycle).
//
// Forward: the maximal run of in-cycle channels ending at i. Duplicating
// anything less leaves a dependency from an original in-cycle channel
// into the duplicate chain, which re-closes the cycle through the new
// vertices — exactly the trap Figure 7 illustrates.
//
// Backward: the maximal run of in-cycle channels starting at i+1.
func chainBounds(dir Direction, pos []int, i int) (lo, hi int) {
	if dir == Forward {
		lo = i
		for lo > 0 && pos[lo-1] >= 0 {
			lo--
		}
		return lo, i
	}
	hi = i + 1
	for hi+1 < len(pos) && pos[hi+1] >= 0 {
		hi++
	}
	return i + 1, hi
}
