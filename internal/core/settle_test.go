package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// corpusDesign is one removal input of the settle corpus: a table or a
// route set (exactly one is non-nil) on its topology.
type corpusDesign struct {
	name string
	top  *topology.Topology
	tab  *route.Table
	set  *route.RouteSet
}

// presetDesign builds a fleet-style preset cell the way the sweep runner
// does: seeded faults, then DOR routes for an unfaulted DOR cell and a
// turn-model route set otherwise. ok is false when the routing cannot
// route the faulted grid (DOR crossing a fault).
func presetDesign(t *testing.T, torus bool, n int, model route.TurnModel, faults int, seed int64) (corpusDesign, bool) {
	t.Helper()
	build := regular.Mesh
	if torus {
		build = regular.Torus
	}
	grid, err := build(n, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := traffic.Transpose(n * n)
	if err != nil {
		t.Fatal(err)
	}
	d := corpusDesign{
		name: fmt.Sprintf("%s/%s/f%d#%d", grid.Topology.Name, model, faults, seed),
		top:  grid.Topology,
	}
	if faults > 0 {
		ids, err := regular.SelectFaults(grid, faults, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := grid.Topology.Fault(ids...); err != nil {
			t.Fatal(err)
		}
	}
	if model == route.DOR && faults == 0 {
		if d.tab, err = regular.DORRoutes(grid, g); err != nil {
			t.Fatal(err)
		}
		return d, true
	}
	d.set, err = route.GridRoutes(grid.Topology, g, grid.Spec(), model, 0)
	return d, err == nil
}

// settleCorpus is the differential corpus of the acyclic first pass: the
// three fleet presets under all six routings with 0–2 faults at seeds
// 0–3, every paper benchmark at the paper_sweep switch counts, the 8x8
// torus under DOR and two removal_scale designs. It mixes designs that
// start acyclic with designs the break loop must repair.
func settleCorpus(t *testing.T) []corpusDesign {
	t.Helper()
	var out []corpusDesign
	for _, p := range []struct {
		torus bool
		n     int
	}{{false, 4}, {true, 4}, {false, 6}} {
		for _, model := range []route.TurnModel{route.DOR, route.WestFirst, route.NorthLast,
			route.NegativeFirst, route.OddEven, route.MinimalAdaptive} {
			for faults := 0; faults <= 2; faults++ {
				for seed := int64(0); seed < 4; seed++ {
					if faults == 0 && seed > 0 {
						break // the seed only picks faults
					}
					if d, ok := presetDesign(t, p.torus, p.n, model, faults, seed); ok {
						out = append(out, d)
					}
				}
			}
		}
	}
	for _, g := range traffic.AllBenchmarks() {
		for _, sw := range []int{8, 11, 14, 17, 20, 25, 30, 35} {
			if sw > g.NumCores() {
				continue
			}
			des, err := synth.Synthesize(g, synth.Options{SwitchCount: sw})
			if err != nil {
				t.Fatalf("synthesize %s @ %d: %v", g.Name, sw, err)
			}
			out = append(out, corpusDesign{name: fmt.Sprintf("%s@%d", g.Name, sw), top: des.Topology, tab: des.Routes})
		}
	}
	grid, err := regular.Torus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regular.UniformTraffic(64, 32, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, corpusDesign{name: "torus_8x8/dor", top: grid.Topology, tab: tab})
	for _, d := range scaleDesigns(t)[:2] {
		out = append(out, corpusDesign{name: d.name, top: d.des.Topology, tab: d.des.Routes})
	}
	return out
}

// removal is the comparable outcome of one removal: the result's
// topology and routes as JSON, InitialAcyclic and the break sequence.
type removal struct {
	top, routes    []byte
	initialAcyclic bool
	breaks         []BreakRecord
}

// run removes d under opts through the entry point its routes call for,
// or, with oracle set, through that entry point's rebuild-every-break
// oracle.
func (d corpusDesign) run(t *testing.T, ctx context.Context, opts Options, oracle bool) (removal, error) {
	t.Helper()
	var top *topology.Topology
	var routes interface{ Write(io.Writer) error }
	var out removal
	if d.tab != nil {
		remove := RemoveContext
		if oracle {
			remove = removeRebuild
		}
		res, err := remove(ctx, d.top, d.tab, opts)
		if err != nil {
			return out, err
		}
		top, routes = res.Topology, res.Routes
		out.initialAcyclic, out.breaks = res.InitialAcyclic, res.Breaks
	} else {
		remove := RemoveSetContext
		if oracle {
			remove = removeRebuildSet
		}
		res, err := remove(ctx, d.top, d.set, opts)
		if err != nil {
			return out, err
		}
		top, routes = res.Topology, res.Routes
		out.initialAcyclic, out.breaks = res.InitialAcyclic, res.Breaks
	}
	var tb, rb bytes.Buffer
	if err := top.Write(&tb); err != nil {
		t.Fatal(err)
	}
	if err := routes.Write(&rb); err != nil {
		t.Fatal(err)
	}
	out.top, out.routes = tb.Bytes(), rb.Bytes()
	return out, nil
}

// paths walks the design's routes the way the removal entry point does.
func (d corpusDesign) paths() cdg.Paths {
	if d.tab != nil {
		return tablePaths(d.tab)
	}
	return setPaths(d.set)
}

// acyclic is the full CDG's verdict on the design.
func (d corpusDesign) acyclic(t *testing.T) bool {
	t.Helper()
	var g *cdg.CDG
	var err error
	if d.tab != nil {
		g, err = cdg.Build(d.top, d.tab)
	} else {
		g, _, err = cdg.BuildSet(d.top, d.set)
	}
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return g.Acyclic()
}

// TestSettleMatchesFullRebuildCorpus is the acyclic first pass's
// differential check: on every corpus design its verdict equals the full
// CDG's, and both removal entry points return exactly what their
// rebuild-every-break oracle returns.
func TestSettleMatchesFullRebuildCorpus(t *testing.T) {
	acyclic := 0
	corpus := settleCorpus(t)
	for _, d := range corpus {
		want := d.acyclic(t)
		if got := cdg.ProveAcyclic(d.top, d.paths()); got != want {
			t.Fatalf("%s: ProveAcyclic = %v, full CDG acyclic = %v", d.name, got, want)
		}
		if want {
			acyclic++
		}
		got, err := d.run(t, context.Background(), Options{}, false)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		full, err := d.run(t, context.Background(), Options{}, true)
		if err != nil {
			t.Fatalf("%s: full rebuild: %v", d.name, err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("%s: removal differs from its full-rebuild run", d.name)
		}
		if got.initialAcyclic != want {
			t.Fatalf("%s: InitialAcyclic = %v, full CDG acyclic = %v", d.name, got.initialAcyclic, want)
		}
	}
	t.Logf("%d of %d corpus designs start acyclic", acyclic, len(corpus))
	// The corpus must exercise both sides of the pass.
	if acyclic == 0 || acyclic == len(corpus) {
		t.Fatalf("%d of %d corpus designs acyclic; want a mix", acyclic, len(corpus))
	}
}

// TestSettleEdgeCases runs the shapes the first pass must hand to the
// break loop, or settle exactly as the loop would, through both entry
// points. A set carries one extra single-hop path on flow 0, so its
// errors name pseudo-flow IDs one above the table's.
func TestSettleEdgeCases(t *testing.T) {
	ring := topology.New("ring")
	for i := 0; i < 4; i++ {
		ring.AddSwitch("")
	}
	for i := 0; i < 4; i++ {
		ring.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	ch := func(link, vc int) topology.Channel { return topology.Chan(topology.LinkID(link), vc) }
	cases := []struct {
		name           string
		routes         [][]topology.Channel
		canceled       bool
		errTab, errSet string // "" = the removal succeeds
		initialAcyclic bool
	}{
		{name: "self-dependency", routes: [][]topology.Channel{{ch(0, 0), ch(0, 0)}},
			errTab: "core: degenerate self-dependency on channel [{0 0}] (route repeats a channel?)",
			errSet: "core: degenerate self-dependency on channel [{0 0}] (route repeats a channel?)"},
		{name: "repeated channel", routes: [][]topology.Channel{{ch(0, 0), ch(1, 0), ch(0, 0)}}},
		{name: "2-cycle", routes: [][]topology.Channel{{ch(0, 0), ch(1, 0)}, {ch(1, 0), ch(0, 0)}}},
		{name: "ring", routes: [][]topology.Channel{{ch(0, 0), ch(1, 0), ch(2, 0)}, {ch(2, 0), ch(3, 0)},
			{ch(3, 0), ch(0, 0)}, {ch(0, 0), ch(1, 0)}}},
		{name: "unknown link", routes: [][]topology.Channel{{ch(0, 0), ch(1, 0)}, {ch(9, 0)}},
			errTab: "cdg: flow 1 hop 0 uses unprovisioned channel {9 0}",
			errSet: "cdg: flow 2 hop 0 uses unprovisioned channel {9 0}"},
		{name: "missing VC", routes: [][]topology.Channel{{ch(0, 0), ch(1, 1)}},
			errTab: "cdg: flow 0 hop 1 uses unprovisioned channel {1 1}",
			errSet: "cdg: flow 1 hop 1 uses unprovisioned channel {1 1}"},
		{name: "canceled, acyclic", routes: [][]topology.Channel{{ch(0, 0), ch(1, 0)}}, canceled: true,
			errTab: "canceled: context canceled", errSet: "canceled: context canceled"},
		{name: "canceled, unknown link", routes: [][]topology.Channel{{ch(9, 0)}}, canceled: true,
			errTab: "cdg: flow 0 hop 0 uses unprovisioned channel {9 0}",
			errSet: "cdg: flow 1 hop 0 uses unprovisioned channel {9 0}"},
		{name: "local flows", routes: [][]topology.Channel{nil, {}, {ch(0, 0), ch(1, 0)}}, initialAcyclic: true},
		{name: "empty table", initialAcyclic: true},
	}
	for _, c := range cases {
		tab := route.NewTable(len(c.routes))
		set := route.NewRouteSet(len(c.routes))
		set.AppendPath(0, []topology.Channel{ch(3, 0)})
		for f, r := range c.routes {
			tab.Set(f, r)
			set.AppendPath(f, r)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if c.canceled {
			cancel()
		}
		for _, d := range []struct {
			corpusDesign
			wantErr string
		}{
			{corpusDesign{name: c.name + " (table)", top: ring, tab: tab}, c.errTab},
			{corpusDesign{name: c.name + " (set)", top: ring, set: set}, c.errSet},
		} {
			got, err := d.run(t, ctx, Options{}, false)
			if d.wantErr != "" {
				if err == nil || err.Error() != d.wantErr {
					t.Errorf("%s: error %v, want %q", d.name, err, d.wantErr)
				}
				if c.canceled && d.wantErr == "canceled: context canceled" &&
					!(errors.Is(err, nocerr.ErrCanceled) && errors.Is(err, context.Canceled)) {
					t.Errorf("%s: %v does not wrap both cancellation sentinels", d.name, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", d.name, err)
				continue
			}
			full, err := d.run(t, ctx, Options{}, true)
			if err != nil {
				t.Fatalf("%s: full rebuild: %v", d.name, err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Errorf("%s: removal differs from its full-rebuild run", d.name)
			}
			if got.initialAcyclic != c.initialAcyclic {
				t.Errorf("%s: InitialAcyclic = %v, want %v", d.name, got.initialAcyclic, c.initialAcyclic)
			}
		}
		cancel()
	}
}

// TestSettleAllocsConstant bounds what an acyclic cell costs: removal on
// a one-fault transpose preset whose union CDG starts acyclic allocates
// a small constant — the copies of the topology and the set, the pass's
// three arrays — whatever the cell's path count.
func TestSettleAllocsConstant(t *testing.T) {
	const bound = 40
	counts := map[int]bool{}
	for _, c := range []struct {
		torus bool
		n     int
		model route.TurnModel
	}{
		{false, 6, route.WestFirst},
		{false, 6, route.OddEven},
		{false, 6, route.MinimalAdaptive},
		{true, 4, route.WestFirst},
		{true, 4, route.MinimalAdaptive},
	} {
		d, ok := presetDesign(t, c.torus, c.n, c.model, 1, 0)
		if !ok {
			t.Fatalf("%s: unroutable", d.name)
		}
		if !d.acyclic(t) {
			t.Fatalf("%s: union CDG cyclic; the fixture must start acyclic", d.name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := RemoveSetContext(context.Background(), d.top, d.set, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d paths, %.0f allocs", d.name, d.set.TotalPaths(), allocs)
		if allocs > bound {
			t.Errorf("%s: %.0f allocs per removal, want at most %d", d.name, allocs, bound)
		}
		counts[d.set.TotalPaths()] = true
	}
	if len(counts) < 2 {
		t.Fatal("every fixture has the same path count; the bound shows nothing")
	}
}
