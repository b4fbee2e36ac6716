package route_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// TestRegenerateFlowsMatchesGridRoutes pins the equivalence that makes
// incremental rerouting sound: regenerating any subset of flows yields
// path-for-path what a full GridRoutes run yields for those flows, on
// both clean and faulted grids.
func TestRegenerateFlowsMatchesGridRoutes(t *testing.T) {
	grid, err := regular.Mesh(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 25)
	ids, err := regular.SelectFaults(grid, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	faulted := grid.Topology.Clone()
	if err := faulted.Fault(ids...); err != nil {
		t.Fatal(err)
	}
	for _, top := range []*topology.Topology{grid.Topology, faulted} {
		for _, m := range append([]route.TurnModel{route.MinimalAdaptive}, adaptiveModels...) {
			full, err := route.GridRoutes(top, g, grid.Spec(), m, 4)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			all := make([]int, g.NumFlows())
			for i := range all {
				all[i] = i
			}
			regen, err := route.RegenerateFlows(top, g, grid.Spec(), m, 4, all)
			if err != nil {
				t.Fatalf("%s: RegenerateFlows: %v", m, err)
			}
			for _, f := range all {
				want := full.Paths(f)
				got := regen[f]
				if len(got) == 0 && len(want) == 1 && len(want[0]) == 0 {
					continue // local flow: GridRoutes stores one empty path
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s flow %d: regenerated paths %v, want %v", m, f, got, want)
				}
			}
		}
	}
}

func TestRegenerateFlowsRejectsBadInput(t *testing.T) {
	grid, err := regular.Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 9)
	if _, err := route.RegenerateFlows(grid.Topology, g, grid.Spec(), route.OddEven, 4, []int{999}); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("unknown flow: err = %v, want ErrInvalidInput", err)
	}
	bad := route.GridSpec{Cols: 2, Rows: 2}
	if _, err := route.RegenerateFlows(grid.Topology, g, bad, route.OddEven, 4, []int{0}); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("mismatched grid: err = %v, want ErrInvalidInput", err)
	}
}

func TestFlowsThrough(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 16)
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 4)
	if err != nil {
		t.Fatal(err)
	}
	for link := topology.LinkID(0); int(link) < grid.Topology.NumLinks(); link++ {
		got := set.FlowsThrough(link)
		// Brute-force reference over the public Paths accessor.
		var want []int
		for f := 0; f < set.NumFlows(); f++ {
		scan:
			for _, p := range set.Paths(f) {
				for _, c := range p {
					if c.Link == link {
						want = append(want, f)
						break scan
					}
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("link %d: FlowsThrough = %v, want %v", link, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("link %d: FlowsThrough not strictly ascending: %v", link, got)
			}
		}
	}
}

// TestAppendPathKeepsDuplicates pins that AppendPath bypasses Add's
// dedup — required so rebuilt sets stay aligned with pseudo-flow IDs
// even when a removal replay rewrites two candidates onto one sequence.
func TestAppendPathKeepsDuplicates(t *testing.T) {
	p := []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)}
	s := route.NewRouteSet(1)
	s.Add(0, p)
	s.Add(0, p)
	if s.NumPaths(0) != 1 {
		t.Fatalf("Add deduped to %d paths, want 1", s.NumPaths(0))
	}
	s.AppendPath(0, p)
	if s.NumPaths(0) != 2 {
		t.Fatalf("AppendPath gave %d paths, want 2", s.NumPaths(0))
	}
	// Growth past the initial size, matching Add's behaviour.
	s.AppendPath(3, nil)
	if s.NumFlows() != 4 {
		t.Fatalf("NumFlows = %d after growing append, want 4", s.NumFlows())
	}
}

func TestRouteSetJSONRoundTrip(t *testing.T) {
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := allToAll(t, 16)
	set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.WestFirst, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate candidate, an empty (pathless) slot, and an empty local
	// path must all survive the round trip.
	set.AppendPath(0, set.Paths(0)[0])
	set.AppendPath(set.NumFlows()+1, nil)

	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got := route.NewRouteSet(0)
	if err := got.UnmarshalJSON(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got.NumFlows() != set.NumFlows() {
		t.Fatalf("NumFlows = %d, want %d", got.NumFlows(), set.NumFlows())
	}
	for f := 0; f < set.NumFlows(); f++ {
		if !reflect.DeepEqual(got.Paths(f), set.Paths(f)) {
			t.Fatalf("flow %d: paths %v, want %v", f, got.Paths(f), set.Paths(f))
		}
	}
}

func TestReadSetRejectsBadJSON(t *testing.T) {
	cases := []string{
		`{"flows":[{"flow":-1,"paths":[]}]}`,
		`{"flows":[{"flow":0,"paths":[]},{"flow":0,"paths":[]}]}`,
		`{"flows":[{"flow":0,"paths":[[{"link":-2,"vc":0}]]}]}`,
		`not json`,
	}
	for _, c := range cases {
		if err := route.NewRouteSet(0).UnmarshalJSON([]byte(c)); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", c, err)
		}
	}
}
