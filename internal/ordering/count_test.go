package ordering

import (
	"errors"
	"fmt"
	"testing"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// checkCount requires AddedVCs (or AddedVCsSet when set is non-nil) to
// return what Apply does on the table: the same count, or the same error.
func checkCount(t *testing.T, label string, top *topology.Topology, tab *route.Table, set *route.RouteSet) {
	t.Helper()
	var got int
	var gotErr error
	if set != nil {
		got, gotErr = AddedVCsSet(top, set)
	} else {
		got, gotErr = AddedVCs(top, tab)
	}
	res, wantErr := Apply(top, tab, HopIndex)
	switch {
	case wantErr != nil || gotErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: count error %v, Apply error %v", label, gotErr, wantErr)
		}
	case got != res.AddedVCs:
		t.Errorf("%s: count %d, Apply added %d", label, got, res.AddedVCs)
	}
}

// TestAddedVCsMatchesApply pins the demand count to the design Apply
// builds, over every input shape the sweep runner counts.
func TestAddedVCsMatchesApply(t *testing.T) {
	counted := 0
	t.Run("paper benchmarks", func(t *testing.T) {
		for _, g := range traffic.AllBenchmarks() {
			for _, n := range []int{8, 11, 14, 17, 20, 25, 30, 35} {
				if n > g.NumCores() {
					continue
				}
				des, err := synth.Synthesize(g, synth.Options{SwitchCount: n})
				if err != nil {
					t.Fatal(err)
				}
				checkCount(t, fmt.Sprintf("%s@%d", g.Name, n), des.Topology, des.Routes, nil)
				counted++
			}
		}
	})
	t.Run("DOR presets", func(t *testing.T) {
		for _, wrap := range []bool{false, true} {
			for _, dims := range [][2]int{{2, 2}, {3, 4}, {4, 4}, {6, 6}, {8, 8}} {
				grid := mustGrid(t, wrap, dims[0], dims[1])
				n := dims[0] * dims[1]
				for _, stride := range []int{1, n / 2} {
					g, err := regular.UniformTraffic(n, stride, 100)
					if err != nil {
						t.Fatal(err)
					}
					tab, err := regular.DORRoutes(grid, g)
					if err != nil {
						t.Fatal(err)
					}
					checkCount(t, fmt.Sprintf("%s stride %d", grid.Topology.Name, stride), grid.Topology, tab, nil)
					counted++
				}
			}
		}
	})
	t.Run("flattened adaptive sets", func(t *testing.T) {
		for _, wrap := range []bool{false, true} {
			for _, side := range []int{4, 6} {
				for _, faults := range []int{0, 2} {
					for _, model := range []route.TurnModel{route.WestFirst, route.OddEven, route.MinimalAdaptive} {
						grid := mustGrid(t, wrap, side, side)
						if faults > 0 {
							ids, err := regular.SelectFaults(grid, faults, int64(side))
							if err != nil {
								t.Fatal(err)
							}
							if err := grid.Topology.Fault(ids...); err != nil {
								t.Fatal(err)
							}
						}
						g, err := traffic.Transpose(side * side)
						if err != nil {
							t.Fatal(err)
						}
						set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, 0)
						if err != nil {
							t.Fatal(err)
						}
						flat, _ := set.Flatten()
						label := fmt.Sprintf("%s/%s faults %d", grid.Topology.Name, model, faults)
						checkCount(t, label, grid.Topology, flat, set)
						counted++
					}
				}
			}
		}
	})
	t.Run("pre-provisioned VCs", func(t *testing.T) {
		g, err := traffic.ByName("D36_8")
		if err != nil {
			t.Fatal(err)
		}
		des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
		if err != nil {
			t.Fatal(err)
		}
		top := des.Topology.Clone()
		// Give every third link two extra VCs: some of them already
		// offer every layer their routes demand, and add nothing.
		for id := 0; id < top.NumLinks(); id += 3 {
			for k := 0; k < 2; k++ {
				if _, err := top.AddVC(topology.LinkID(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkCount(t, "D36_8@14 pre-provisioned", top, des.Routes, nil)
		bare, _ := AddedVCs(des.Topology, des.Routes)
		pre, _ := AddedVCs(top, des.Routes)
		if pre >= bare || pre <= bare-2*((top.NumLinks()+2)/3) {
			t.Errorf("pre-provisioned count %d should sit strictly between %d and %d", pre, bare-2*((top.NumLinks()+2)/3), bare)
		}
		counted++
	})
	t.Run("faulted demand", func(t *testing.T) {
		// Flows 0 and 3 cross link 1 at hop 1. Faulted with one VC it
		// cannot offer layer 1; faulted with two it needs nothing more.
		for _, vcs := range []int{1, 2} {
			top, tab := paperExample()
			for top.Link(1).VCs < vcs {
				if _, err := top.AddVC(1); err != nil {
					t.Fatal(err)
				}
			}
			if err := top.Fault(1); err != nil {
				t.Fatal(err)
			}
			checkCount(t, fmt.Sprintf("ring with faulted link 1 at %d VCs", vcs), top, tab, nil)
			_, err := AddedVCs(top, tab)
			if (err != nil) != (vcs == 1) || (err != nil && !errors.Is(err, nocerr.ErrInvalidInput)) {
				t.Errorf("faulted link 1 at %d VCs: err %v", vcs, err)
			}
		}
	})
	if counted < 80 {
		t.Errorf("compared only %d designs", counted)
	}
}

// TestUnknownLinkRejected: a route naming a link the topology lacks is
// invalid input under every scheme and in the count, never a panic.
func TestUnknownLinkRejected(t *testing.T) {
	for _, bad := range []topology.LinkID{4, 99, -1} {
		top, tab := paperExample()
		tab.Set(1, []topology.Channel{topology.Chan(2, 0), topology.Chan(bad, 0)})
		for _, scheme := range allSchemes {
			if _, err := Apply(top, tab, scheme); !errors.Is(err, nocerr.ErrInvalidInput) {
				t.Errorf("link %d, scheme %v: err %v, want ErrInvalidInput", bad, scheme, err)
			}
		}
		if _, err := AddedVCs(top, tab); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("link %d: AddedVCs err %v, want ErrInvalidInput", bad, err)
		}
		// A second candidate for flow 0 moves flow 1's path to pseudo-flow 2.
		set := route.FromTable(tab)
		set.Add(0, []topology.Channel{topology.Chan(0, 0)})
		if _, err := AddedVCsSet(top, set); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("link %d: AddedVCsSet err %v, want ErrInvalidInput", bad, err)
		}
		flat, _ := set.Flatten()
		checkCount(t, fmt.Sprintf("set with link %d", bad), top, flat, set)
	}
}

func mustGrid(t *testing.T, wrap bool, cols, rows int) *regular.Grid {
	t.Helper()
	build := regular.Mesh
	if wrap {
		build = regular.Torus
	}
	grid, err := build(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	return grid
}
