package route_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// oracleModels are the five models GridRoutes enumerates minimal paths
// for (DOR takes its one path from DORPath).
var oracleModels = []route.TurnModel{
	route.WestFirst, route.NorthLast, route.NegativeFirst, route.OddEven, route.MinimalAdaptive,
}

// oracleCaps are the per-flow caps the oracle comparisons cover: a
// single path, small caps, the default, and one that is no power of two.
var oracleCaps = []int{1, 2, 4, 7}

// enumCase is one GridRoutes input: a grid, a model, seeded faults and
// a per-flow cap, under all-to-all traffic.
type enumCase struct {
	cols, rows int
	wrap       bool
	model      route.TurnModel
	faults     int
	seed       int64
	maxPaths   int
}

func (c enumCase) String() string {
	kind := "mesh"
	if c.wrap {
		kind = "torus"
	}
	return fmt.Sprintf("%s:%dx%d/%s/faults%d@%d/max%d", kind, c.cols, c.rows, c.model, c.faults, c.seed, c.maxPaths)
}

// build returns the case's grid with its faults applied and its traffic,
// or ok false when the faults cannot be placed without disconnecting it.
func (c enumCase) build(t *testing.T) (grid *regular.Grid, g *traffic.Graph, ok bool) {
	t.Helper()
	var err error
	if c.wrap {
		grid, err = regular.Torus(c.cols, c.rows)
	} else {
		grid, err = regular.Mesh(c.cols, c.rows)
	}
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	ids, err := regular.SelectFaults(grid, c.faults, c.seed)
	if err != nil {
		return nil, nil, false
	}
	if err := grid.Topology.Fault(ids...); err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	return grid, allToAll(t, c.cols*c.rows), true
}

// samePaths reports whether two path lists hold the same paths in the
// same order.
func samePaths(a, b [][]topology.Channel) bool {
	return slices.EqualFunc(a, b, func(p, q []topology.Channel) bool { return slices.Equal(p, q) })
}

// checkAgainstOracle requires GridRoutes, and RegenerateFlows over every
// flow, to return the oracle's paths in the oracle's order.
func checkAgainstOracle(t *testing.T, c enumCase) {
	t.Helper()
	grid, g, ok := c.build(t)
	if !ok {
		return
	}
	top, gs := grid.Topology, grid.Spec()
	want, err := route.GridRoutesOracle(top, g, gs, c.model, c.maxPaths)
	if err != nil {
		t.Fatalf("%v: oracle: %v", c, err)
	}
	got, err := route.GridRoutes(top, g, gs, c.model, c.maxPaths)
	if err != nil {
		t.Fatalf("%v: GridRoutes: %v", c, err)
	}
	flows := make([]int, g.NumFlows())
	for i := range flows {
		flows[i] = i
	}
	regen, err := route.RegenerateFlows(top, g, gs, c.model, c.maxPaths, flows)
	if err != nil {
		t.Fatalf("%v: RegenerateFlows: %v", c, err)
	}
	for f := range flows {
		w := route.PathsOf(want, f)
		if p := route.PathsOf(got, f); !samePaths(p, w) {
			t.Fatalf("%v: flow %d: GridRoutes paths %v, oracle %v", c, f, p, w)
		}
		if p := regen[f]; !samePaths(p, w) {
			t.Fatalf("%v: flow %d: RegenerateFlows paths %v, oracle %v", c, f, p, w)
		}
	}
}

// TestGridRoutesMatchesOracle pins GridRoutes and RegenerateFlows to the
// plain recursive search, path for path and in order: meshes and tori
// from 2×2 to 8×8, the five enumerating models, zero to two seeded
// faults and caps of 1, 2, 4 and 7 paths per flow. Grids of up to 16
// switches cover every fault count with every cap; larger ones pair
// each cap with one fault count, which keeps the 8×8 all-to-all cases
// to a second.
func TestGridRoutesMatchesOracle(t *testing.T) {
	shapes := [][2]int{{2, 2}, {3, 2}, {2, 5}, {3, 3}, {4, 4}, {5, 3}, {6, 6}, {8, 8}}
	for _, sh := range shapes {
		for _, wrap := range []bool{false, true} {
			for _, m := range oracleModels {
				for faults := 0; faults <= 2; faults++ {
					for i, mp := range oracleCaps {
						if sh[0]*sh[1] > 16 && i%3 != faults {
							continue
						}
						checkAgainstOracle(t, enumCase{
							cols: sh[0], rows: sh[1], wrap: wrap, model: m,
							faults: faults, seed: int64(sh[0]*31 + sh[1] + faults), maxPaths: mp,
						})
					}
				}
			}
		}
	}
}

// FuzzGridRoutesMatchesOracle widens the oracle comparison to arbitrary
// grid shapes up to 8×8, models, fault seeds and caps.
func FuzzGridRoutesMatchesOracle(f *testing.F) {
	f.Add(uint8(2), uint8(2), false, uint8(4), uint8(0), int64(0), uint8(0))
	f.Add(uint8(4), uint8(4), true, uint8(3), uint8(1), int64(5), uint8(2))
	f.Add(uint8(6), uint8(6), false, uint8(2), uint8(2), int64(1), uint8(3))
	f.Add(uint8(8), uint8(8), true, uint8(0), uint8(1), int64(9), uint8(1))
	f.Fuzz(func(t *testing.T, cols, rows uint8, wrap bool, model, faults uint8, seed int64, capIdx uint8) {
		checkAgainstOracle(t, enumCase{
			cols: 2 + int(cols%7), rows: 2 + int(rows%7), wrap: wrap,
			model:  oracleModels[int(model)%len(oracleModels)],
			faults: int(faults % 3), seed: seed,
			maxPaths: oracleCaps[int(capIdx)%len(oracleCaps)],
		})
	})
}

// TestGridRoutesPathsDoNotAlias pins the capping of carved storage: the
// paths of a GridRoutes set and of a RegenerateFlows result share
// backing arrays, yet appending to any one path, or to any one flow's
// path list, never changes another.
func TestGridRoutesPathsDoNotAlias(t *testing.T) {
	grid, err := regular.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	top, gs := grid.Topology, grid.Spec()
	g := allToAll(t, 36)
	want, err := route.GridRoutesOracle(top, g, gs, route.MinimalAdaptive, 7)
	if err != nil {
		t.Fatal(err)
	}
	set, err := route.GridRoutes(top, g, gs, route.MinimalAdaptive, 7)
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]int, g.NumFlows())
	for i := range flows {
		flows[i] = i
	}
	regen, err := route.RegenerateFlows(top, g, gs, route.MinimalAdaptive, 7, flows)
	if err != nil {
		t.Fatal(err)
	}
	extra := topology.Chan(topology.LinkID(top.NumLinks()), 9)
	for f := range flows {
		for _, lists := range [][][]topology.Channel{route.PathsOf(set, f), regen[f]} {
			for _, p := range lists {
				_ = append(p, extra)
			}
			_ = append(lists, []topology.Channel{extra})
		}
	}
	for f := range flows {
		w := route.PathsOf(want, f)
		if p := route.PathsOf(set, f); !samePaths(p, w) {
			t.Fatalf("flow %d: GridRoutes paths became %v after appends, want %v", f, p, w)
		}
		if p := regen[f]; !samePaths(p, w) {
			t.Fatalf("flow %d: RegenerateFlows paths became %v after appends, want %v", f, p, w)
		}
	}
}

// TestMaxPathsBounded pins the per-flow cap's bound: route.MaxPaths is
// accepted, one more is invalid input for both generators, and on an 8×8
// transpose mesh the bound still lets the corner flow keep 64 of its
// 3,432 minimal paths.
func TestMaxPathsBounded(t *testing.T) {
	grid, err := regular.Mesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(64)
	if err != nil {
		t.Fatal(err)
	}
	top, gs := grid.Topology, grid.Spec()
	set, err := route.GridRoutes(top, g, gs, route.MinimalAdaptive, route.MaxPaths)
	if err != nil {
		t.Fatalf("GridRoutes at the bound: %v", err)
	}
	most := 0
	for f := 0; f < g.NumFlows(); f++ {
		most = max(most, set.NumPaths(f))
	}
	if most != route.MaxPaths {
		t.Fatalf("most paths of one flow at the bound = %d, want %d", most, route.MaxPaths)
	}
	if _, err := route.GridRoutes(top, g, gs, route.MinimalAdaptive, route.MaxPaths+1); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("GridRoutes above the bound: err %v, want invalid input", err)
	}
	if _, err := route.RegenerateFlows(top, g, gs, route.MinimalAdaptive, route.MaxPaths+1, []int{0}); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("RegenerateFlows above the bound: err %v, want invalid input", err)
	}
}

// TestGridRoutesBlockedFlowStaysLinear pins the dead-state skip on the
// case it exists for: a flow whose every minimal path is blocked. On a
// 32×32 mesh both minimal links into the destination of a 58-hop flow
// are faulted, so a search without the skip would try all C(58, 29),
// about 3×10^16, minimal prefixes before the escape route. With it the
// search visits each (switch, direction) state once and falls back to
// the BFS escape, two hops longer than minimal.
func TestGridRoutesBlockedFlowStaysLinear(t *testing.T) {
	const n = 32
	grid, err := regular.Mesh(n, n)
	if err != nil {
		t.Fatal(err)
	}
	top := grid.Topology
	dst := topology.SwitchID((n-3)*n + n - 3)
	west, _ := top.FindLink(dst-1, dst)
	south, _ := top.FindLink(dst-n, dst)
	if err := top.Fault(west, south); err != nil {
		t.Fatal(err)
	}
	g := traffic.NewGraph("blocked")
	for i := 0; i < n*n; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, traffic.CoreID(dst), 1)
	set, err := route.GridRoutes(top, g, grid.Spec(), route.MinimalAdaptive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(top, g); err != nil {
		t.Fatal(err)
	}
	if ps := route.PathsOf(set, 0); len(ps) != 1 || len(ps[0]) != 2*(n-3)+2 {
		t.Fatalf("blocked flow got paths %v, want one %d-hop escape", ps, 2*(n-3)+2)
	}
}
