package route_test

import (
	"fmt"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// allToAll builds a traffic graph with one core per switch and one flow
// per ordered pair — the exhaustive pattern for connectivity properties.
func allToAll(t *testing.T, n int) *traffic.Graph {
	t.Helper()
	g := traffic.NewGraph(fmt.Sprintf("all2all_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				g.MustAddFlow(traffic.CoreID(s), traffic.CoreID(d), 10)
			}
		}
	}
	return g
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var adaptiveModels = []route.TurnModel{
	route.WestFirst, route.NorthLast, route.NegativeFirst, route.OddEven,
}

// TestTurnModelsConnectedAndValid pins the connectivity property: on
// fault-free meshes of several shapes, every turn model routes every
// ordered pair with at least one valid minimal path.
func TestTurnModelsConnectedAndValid(t *testing.T) {
	shapes := [][2]int{{3, 3}, {4, 4}, {5, 3}, {2, 4}, {6, 6}}
	models := append([]route.TurnModel{route.DOR, route.MinimalAdaptive}, adaptiveModels...)
	for _, sh := range shapes {
		grid, err := regular.Mesh(sh[0], sh[1])
		if err != nil {
			t.Fatal(err)
		}
		g := allToAll(t, sh[0]*sh[1])
		for _, m := range models {
			set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), m, 0)
			if err != nil {
				t.Fatalf("mesh %dx%d %s: %v", sh[0], sh[1], m, err)
			}
			if err := set.Validate(grid.Topology, g); err != nil {
				t.Fatalf("mesh %dx%d %s: invalid set: %v", sh[0], sh[1], m, err)
			}
			// Every path must be minimal: no fallback should have fired on
			// a fault-free mesh. Core i is attached to switch i.
			for _, f := range g.Flows() {
				sx, sy := int(f.Src)%sh[0], int(f.Src)/sh[0]
				dx, dy := int(f.Dst)%sh[0], int(f.Dst)/sh[0]
				want := abs(sx-dx) + abs(sy-dy)
				for _, p := range set.Paths(f.ID) {
					if len(p) != want {
						t.Fatalf("mesh %dx%d %s flow %d: path len %d, want minimal %d",
							sh[0], sh[1], m, f.ID, len(p), want)
					}
				}
			}
		}
	}
}

// TestTurnModelCDGAcyclicByConstruction pins the defining property of the
// four turn models: the CDG over the union of permitted transitions is
// acyclic on a mesh with NO removal step — they are deadlock-free by
// construction. MinimalAdaptive is the counterpoint: fully adaptive
// minimal routing must produce a cyclic CDG on a 4x4 (or larger) mesh.
func TestTurnModelCDGAcyclicByConstruction(t *testing.T) {
	for _, sh := range [][2]int{{3, 3}, {4, 4}, {5, 5}, {6, 4}} {
		grid, err := regular.Mesh(sh[0], sh[1])
		if err != nil {
			t.Fatal(err)
		}
		g := allToAll(t, sh[0]*sh[1])
		for _, m := range adaptiveModels {
			set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), m, 8)
			if err != nil {
				t.Fatalf("%s on %dx%d: %v", m, sh[0], sh[1], err)
			}
			c, _, err := cdg.BuildSet(grid.Topology, set)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Acyclic() {
				t.Errorf("%s on %dx%d mesh: union CDG cyclic — turn model guarantee violated", m, sh[0], sh[1])
			}
		}
		set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.MinimalAdaptive, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := cdg.BuildSet(grid.Topology, set)
		if err != nil {
			t.Fatal(err)
		}
		if sh[0] >= 4 && sh[1] >= 4 && c.Acyclic() {
			t.Errorf("min-adaptive on %dx%d mesh: CDG unexpectedly acyclic", sh[0], sh[1])
		}
	}
}

// TestGridRoutesAroundFaults faults links and checks the generated sets
// still connect every pair without touching the faulted links.
func TestGridRoutesAroundFaults(t *testing.T) {
	grid, err := regular.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 25)
	for seed := int64(0); seed < 4; seed++ {
		ids, err := regular.SelectFaults(grid, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		top := grid.Topology.Clone()
		if err := top.Fault(ids...); err != nil {
			t.Fatal(err)
		}
		for _, m := range append([]route.TurnModel{route.MinimalAdaptive}, adaptiveModels...) {
			set, err := route.GridRoutes(top, g, grid.Spec(), m, 4)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, m, err)
			}
			// Validate rejects faulted channels, so this covers avoidance.
			if err := set.Validate(top, g); err != nil {
				t.Fatalf("seed %d %s: %v", seed, m, err)
			}
		}
		// Deterministic DOR must refuse to route across a fault for at
		// least one pair when a fault lies on an XY path (it may succeed
		// for lucky fault placements, so only check it never silently
		// crosses a faulted link).
		if set, err := route.GridRoutes(top, g, grid.Spec(), route.DOR, 1); err == nil {
			if err := set.Validate(top, g); err != nil {
				t.Fatalf("seed %d dor: set invalid: %v", seed, err)
			}
		}
	}
}

// TestDORFaultHardError pins that DOR takes no fault escape: with
// all-to-all traffic every link lies on some flow's XY path, so faulting
// any single link must make DOR generation fail rather than silently
// detour.
func TestDORFaultHardError(t *testing.T) {
	grid, err := regular.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 9)
	top := grid.Topology.Clone()
	if err := top.Fault(grid.Topology.Links()[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := route.GridRoutes(top, g, grid.Spec(), route.DOR, 1); err == nil {
		t.Fatal("DOR routed around a fault on an XY path — the no-escape contract is broken")
	}
}

// TestTurnModelDeterminism pins that generation is a pure function of
// its inputs: two runs produce identical sets.
func TestTurnModelDeterminism(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 16)
	for _, m := range adaptiveModels {
		a, err := route.GridRoutes(grid.Topology, g, grid.Spec(), m, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := route.GridRoutes(grid.Topology, g, grid.Spec(), m, 4)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < g.NumFlows(); f++ {
			pa, pb := a.Paths(f), b.Paths(f)
			if len(pa) != len(pb) {
				t.Fatalf("%s flow %d: %d vs %d paths", m, f, len(pa), len(pb))
			}
			for i := range pa {
				if fmt.Sprint(pa[i]) != fmt.Sprint(pb[i]) {
					t.Fatalf("%s flow %d path %d differs", m, f, i)
				}
			}
		}
	}
}

// TestParseTurnModelRoundTrip checks names round-trip through the parser.
func TestParseTurnModelRoundTrip(t *testing.T) {
	for _, name := range route.TurnModelNames() {
		m, err := route.ParseTurnModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Errorf("round trip %q → %q", name, m.String())
		}
	}
	if _, err := route.ParseTurnModel("bogus"); err == nil {
		t.Error("bogus model accepted")
	}
}

// TestFlattenSinglePathIdentity pins the flatten contract: a single-path
// set flattens to a table whose pseudo-flow IDs equal the flow IDs.
func TestFlattenSinglePathIdentity(t *testing.T) {
	grid, err := regular.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 9)
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	set := route.FromTable(tab)
	flat, refs := set.Flatten()
	if flat.NumFlows() != g.NumFlows() {
		t.Fatalf("flattened %d pseudo-flows, want %d", flat.NumFlows(), g.NumFlows())
	}
	for i, ref := range refs {
		if ref.FlowID != i || ref.Index != 0 {
			t.Fatalf("ref %d = %+v, want identity", i, ref)
		}
		if fmt.Sprint(flat.Route(i).Channels) != fmt.Sprint(tab.Route(i).Channels) {
			t.Fatalf("flow %d channels differ", i)
		}
	}
	if single, ok := set.Single(); !ok || single.NumFlows() != tab.NumFlows() {
		t.Fatal("Single() lost the set")
	}
}

// TestGridRoutesDORMatchesRegular pins the two DOR entry points to each
// other: route.GridRoutes under the DOR model must produce exactly the
// channel sequences of regular.DORRoutes on mesh and torus — the claim
// that dor sweep cells match the classic single-path pipeline rests on
// both taking one DORPath per flow, between the same switches.
func TestGridRoutesDORMatchesRegular(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		var grid *regular.Grid
		var err error
		if wrap {
			grid, err = regular.Torus(4, 4)
		} else {
			grid, err = regular.Mesh(4, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		g := allToAll(t, 16)
		tab, err := regular.DORRoutes(grid, g)
		if err != nil {
			t.Fatal(err)
		}
		set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.DOR, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range g.Flows() {
			ps := set.Paths(f.ID)
			if len(ps) != 1 {
				t.Fatalf("wrap=%v flow %d: %d DOR paths, want 1", wrap, f.ID, len(ps))
			}
			if fmt.Sprint(ps[0]) != fmt.Sprint(tab.Route(f.ID).Channels) {
				t.Fatalf("wrap=%v flow %d: DOR paths diverge:\n GridRoutes: %v\n DORRoutes:  %v",
					wrap, f.ID, ps[0], tab.Route(f.ID).Channels)
			}
		}
	}
}

// TestGridRoutesMatchesAdd pins GridRoutes keeping the paths it
// enumerates instead of passing them through Add: the set equals one
// built with Add's copy and duplicate scan, path for path, on a clean
// and on a faulted mesh (whose escape paths come from the BFS).
func TestGridRoutesMatchesAdd(t *testing.T) {
	for faults := 0; faults <= 2; faults += 2 {
		grid, err := regular.Mesh(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if faults > 0 {
			ids, err := regular.SelectFaults(grid, faults, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := grid.Topology.Fault(ids...); err != nil {
				t.Fatal(err)
			}
		}
		g := allToAll(t, 16)
		for _, model := range append([]route.TurnModel{route.MinimalAdaptive}, adaptiveModels...) {
			set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, 0)
			if err != nil {
				t.Fatal(err)
			}
			added := route.NewRouteSet(g.NumFlows())
			for f := 0; f < set.NumFlows(); f++ {
				for _, p := range set.Paths(f) {
					added.Add(f, p)
				}
			}
			got, err := set.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := added.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s, %d faults: GridRoutes set differs from the one Add builds", model, faults)
			}
		}
	}
}
