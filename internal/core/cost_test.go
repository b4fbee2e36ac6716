package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// TestBreakChoiceMatchesCostTables pins the one-pass break choice to the
// public cost tables: at every break of a removal, under each direction
// policy, chooseBreak must pick the direction, edge and cost the forward
// and backward BuildCostTable tables select, and report their MAX rows,
// whether it scans the cycle's flows or every route.
func TestBreakChoiceMatchesCostTables(t *testing.T) {
	for _, d := range scaleDesigns(t) {
		checkBreakChoices(t, d.name, d.des.Topology, d.des.Routes)
	}
	for _, g := range traffic.AllBenchmarks() {
		for _, switches := range []int{8, 11, 14, 20} {
			if switches > g.NumCores() {
				continue
			}
			des, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
			if err != nil {
				t.Fatalf("synthesize %s @ %d: %v", g.Name, switches, err)
			}
			checkBreakChoices(t, fmt.Sprintf("%s@%d", g.Name, switches), des.Topology, des.Routes)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		top, _, tab := randomSetup(seed, 12, 60)
		checkBreakChoices(t, fmt.Sprintf("random#%d", seed), top, tab)
	}
}

// checkBreakChoices runs the paper's removal loop on copies of one design
// and checks every break's choice against the two cost tables.
func checkBreakChoices(t *testing.T, name string, top *topology.Topology, tab *route.Table) {
	t.Helper()
	res := &Result{Topology: top.Clone(), Routes: tab.Clone()}
	m, err := cdg.BuildIncremental(res.Topology, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	for brk := 0; ; brk++ {
		cycle := m.SmallestCycle()
		if cycle == nil {
			return
		}
		fwd, err := BuildCostTable(Forward, cycle, res.Routes)
		if err != nil {
			t.Fatalf("%s break %d: forward table: %v", name, brk, err)
		}
		bwd, err := BuildCostTable(Backward, cycle, res.Routes)
		if err != nil {
			t.Fatalf("%s break %d: backward table: %v", name, brk, err)
		}
		for _, policy := range []DirectionPolicy{BestOfBoth, ForwardOnly, BackwardOnly} {
			want := fwd
			if policy == BackwardOnly || (policy == BestOfBoth && bwd.BestCost < fwd.BestCost) {
				want = bwd
			}
			for _, flows := range [][]int{m.CycleFlows(cycle), nil} {
				c, err := chooseBreak(cycle, res.Routes, policy, flows)
				if err != nil {
					t.Fatalf("%s break %d, policy %d: %v", name, brk, policy, err)
				}
				if c.dir != want.Direction || c.edge != want.BestEdge || c.cost != want.BestCost ||
					!slices.Equal(c.max[Forward], fwd.Max) || !slices.Equal(c.max[Backward], bwd.Max) {
					t.Fatalf("%s break %d, policy %d, flows %v: chose %v edge %d cost %d with maxima %v / %v; "+
						"the tables pick %v edge %d cost %d with maxima %v / %v",
						name, brk, policy, flows, c.dir, c.edge, c.cost, c.max[Forward], c.max[Backward],
						want.Direction, want.BestEdge, want.BestCost, fwd.Max, bwd.Max)
				}
			}
		}
		if err := res.applyBreak(cycle, Options{}, m); err != nil {
			t.Fatalf("%s break %d: %v", name, brk, err)
		}
	}
}

// TestCostTableOnClosedWalk pins the cost table of a closed walk that
// visits a channel twice: L1 L2 L1 L3 has the edges L1→L2, L2→L1, L1→L3
// and L3→L1, and each route hop that is one of them is costed at that
// edge.
func TestCostTableOnClosedWalk(t *testing.T) {
	walk := []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0), topology.Chan(0, 0), topology.Chan(2, 0)}
	tab := route.NewTable(2)
	tab.Set(0, []topology.Channel{topology.Chan(1, 0), topology.Chan(0, 0), topology.Chan(2, 0)})
	tab.Set(1, []topology.Channel{topology.Chan(2, 0), topology.Chan(0, 0), topology.Chan(1, 0)})
	for _, c := range []struct {
		dir        Direction
		rows       [][]int
		max        []int
		best, cost int
	}{
		{Forward, [][]int{{0, 1, 2, 0}, {2, 0, 0, 1}}, []int{2, 1, 2, 1}, 1, 1},
		{Backward, [][]int{{0, 2, 1, 0}, {1, 0, 0, 2}}, []int{1, 2, 1, 2}, 0, 1},
	} {
		ct, err := BuildCostTable(c.dir, walk, tab)
		if err != nil {
			t.Fatalf("%v: %v", c.dir, err)
		}
		for i, row := range c.rows {
			if !slices.Equal(ct.PerFlow[i], row) {
				t.Errorf("%v: row %d is %v, want %v", c.dir, i, ct.PerFlow[i], row)
			}
		}
		if !slices.Equal(ct.Max, c.max) || ct.BestEdge != c.best || ct.BestCost != c.cost {
			t.Errorf("%v: max %v, best edge %d cost %d; want %v, edge %d cost %d",
				c.dir, ct.Max, ct.BestEdge, ct.BestCost, c.max, c.best, c.cost)
		}
	}
}
