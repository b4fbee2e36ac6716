package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// torusFixture is a deadlock-prone single-path design: DOR on a torus
// crosses wrap links, so its CDG is cyclic and Remove has real work.
func torusFixture(t *testing.T) (*regular.Grid, *traffic.Graph, *route.Table) {
	t.Helper()
	grid, err := regular.Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regular.UniformTraffic(16, 7, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	return grid, g, tab
}

// TestRemoveSetSinglePathIdentical is the differential pin: RemoveSet on
// a single-path set must produce byte-identical break sequences, the
// same added-VC count, and identical rewritten routes as Remove on the
// equivalent table — the adaptive path is a strict generalization.
func TestRemoveSetSinglePathIdentical(t *testing.T) {
	grid, _, tab := torusFixture(t)
	want, err := Remove(grid.Topology, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RemoveSetContext(context.Background(), grid.Topology, route.FromTable(tab), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.AddedVCs != want.AddedVCs || got.Iterations != want.Iterations || got.InitialAcyclic != want.InitialAcyclic {
		t.Fatalf("summary differs: set (%d VCs, %d iters) vs table (%d VCs, %d iters)",
			got.AddedVCs, got.Iterations, want.AddedVCs, want.Iterations)
	}
	if !reflect.DeepEqual(got.Breaks, want.Breaks) {
		t.Fatal("break sequences differ between RemoveSetContext(single-path) and Remove")
	}
	for f := 0; f < tab.NumFlows(); f++ {
		ps := got.Routes.Paths(f)
		if len(ps) != 1 {
			t.Fatalf("flow %d: %d paths after removal, want 1", f, len(ps))
		}
		if !reflect.DeepEqual(ps[0], want.Routes.Route(f).Channels) {
			t.Fatalf("flow %d: rewritten route differs", f)
		}
	}
	if err := got.VerifySet(); err != nil {
		t.Fatal(err)
	}
}

// allToAll builds a traffic graph with one core per switch and one flow
// per ordered pair; min-adaptive all-to-all on a ≥4x4 mesh is pinned
// cyclic by the route package's turn-model tests.
func allToAll(t *testing.T, n int) *traffic.Graph {
	t.Helper()
	g := traffic.NewGraph("all2all")
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

// TestRemoveSetMinimalAdaptiveMesh runs removal on the deliberately
// deadlock-prone fully-adaptive minimal route set and checks the union
// CDG comes back acyclic with the candidate structure preserved.
func TestRemoveSetMinimalAdaptiveMesh(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 16)
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.MinimalAdaptive, 4)
	if err != nil {
		t.Fatal(err)
	}
	free, err := DeadlockFreeSet(grid.Topology, set)
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Fatal("min-adaptive all-to-all union CDG acyclic on a 4x4 mesh; the fixture lost its cycle")
	}
	res, err := RemoveSetContext(context.Background(), grid.Topology, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialAcyclic {
		t.Fatal("InitialAcyclic true for a cyclic input")
	}
	if res.AddedVCs == 0 || res.Iterations == 0 {
		t.Fatal("removal did no work on a cyclic union CDG")
	}
	if err := res.VerifySet(); err != nil {
		t.Fatal(err)
	}
	// The candidate structure must survive: same path counts per flow.
	for f := 0; f < g.NumFlows(); f++ {
		if res.Routes.NumPaths(f) != set.NumPaths(f) {
			t.Fatalf("flow %d: path count changed %d → %d", f, set.NumPaths(f), res.Routes.NumPaths(f))
		}
	}
	// Break records must name real flow IDs.
	for _, b := range res.Breaks {
		for _, f := range b.Reroutes {
			if f < 0 || f >= g.NumFlows() {
				t.Fatalf("break reroute names pseudo-flow %d (have %d real flows)", f, g.NumFlows())
			}
		}
	}
}

// TestRemoveSetFaultedMinimalAdaptive is the reconfiguration scenario:
// fault links, regenerate the adaptive set around them, remove, verify.
func TestRemoveSetFaultedMinimalAdaptive(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(16)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := regular.SelectFaults(grid, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Topology.Fault(ids...); err != nil {
		t.Fatal(err)
	}
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.MinimalAdaptive, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RemoveSetContext(context.Background(), grid.Topology, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.VerifySet(); err != nil {
		t.Fatal(err)
	}
	// No rewritten path may touch a faulted link: removal only ever
	// duplicates channels that routes already use.
	for f := 0; f < g.NumFlows(); f++ {
		for _, p := range res.Routes.Paths(f) {
			for _, ch := range p {
				if res.Topology.FaultedChannel(ch) {
					t.Fatalf("flow %d routed over faulted link %d after removal", f, ch.Link)
				}
			}
		}
	}
}
