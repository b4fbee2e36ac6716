package route_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// synthChordWeights recovers the base costs synthesis routes with: it
// adds its nSw-1 backbone link pairs first, so every later link is a
// chord at weight 1.3. Comparing synthesis's own table with the oracle
// routed under these weights checks the recovery too.
func synthChordWeights(top *topology.Topology) map[topology.LinkID]float64 {
	w := make(map[topology.LinkID]float64)
	for id := 2 * (top.NumSwitches() - 1); id < top.NumLinks(); id++ {
		w[topology.LinkID(id)] = 1.3
	}
	return w
}

// sameRoutes fails t unless got routes every flow of g exactly as want.
func sameRoutes(t *testing.T, label string, g *traffic.Graph, want, got *route.Table) {
	t.Helper()
	for id := 0; id < g.NumFlows(); id++ {
		w, r := want.Route(id), got.Route(id)
		if (w == nil) != (r == nil) {
			t.Fatalf("%s flow %d: route presence differs (want %v, got %v)", label, id, w, r)
		}
		if w == nil {
			continue
		}
		if len(w.Channels) != len(r.Channels) {
			t.Fatalf("%s flow %d: %d hops, oracle has %d", label, id, len(r.Channels), len(w.Channels))
		}
		for h := range w.Channels {
			if w.Channels[h] != r.Channels[h] {
				t.Fatalf("%s flow %d hop %d: %v, oracle has %v", label, id, h, r.Channels[h], w.Channels[h])
			}
		}
	}
}

// checkAgainstReference routes g on top with both routers and requires
// identical tables, or an error from both.
func checkAgainstReference(t *testing.T, label string, top *topology.Topology, g *traffic.Graph, base map[topology.LinkID]float64) *route.Table {
	t.Helper()
	want, werr := referenceShortestPaths(top, g, base)
	got, gerr := route.ShortestPathsWeighted(top, g, base)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: router error %v, oracle error %v", label, gerr, werr)
	}
	if werr == nil {
		sameRoutes(t, label, g, want, got)
	}
	return want
}

// TestShortestPathsMatchReference pins the dense router to the map-based
// oracle channel for channel: on every paper benchmark at 2–35 switches
// and on 128-core random designs (both with synthesis's chord weights),
// and on faulted meshes and tori with unit costs, the path
// Session.ComputeRoutes takes.
func TestShortestPathsMatchReference(t *testing.T) {
	check := func(label string, g *traffic.Graph, switches int) {
		res, err := synth.Synthesize(g, synth.Options{SwitchCount: switches})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := checkAgainstReference(t, label, res.Topology, g, synthChordWeights(res.Topology))
		sameRoutes(t, label+" (synthesized)", g, want, res.Routes)
	}
	for _, g := range traffic.AllBenchmarks() {
		for s := 2; s <= 35; s++ {
			check(fmt.Sprintf("%s@%d", g.Name, s), g, s)
		}
	}
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		check(fmt.Sprintf("rand:128x6#%d@48", seed), traffic.RandomKOut("r", 128, 6, int64(seed)), 48)
	}

	for _, torus := range []bool{false, true} {
		build := regular.Mesh
		if torus {
			build = regular.Torus
		}
		grid, err := build(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		flows := []*traffic.Graph{allToAll(t, 36), traffic.RandomKOut("r", 36, 4, 3)}
		for _, nf := range []int{0, 3, 6} {
			for fseed := int64(1); fseed <= 3; fseed++ {
				ids, err := regular.SelectFaults(grid, nf, fseed)
				if err != nil {
					t.Fatal(err)
				}
				top := grid.Topology.Clone()
				if err := top.Fault(ids...); err != nil {
					t.Fatal(err)
				}
				for i, g := range flows {
					label := fmt.Sprintf("%s faults=%d seed=%d traffic=%d", top.Name, nf, fseed, i)
					checkAgainstReference(t, label, top, g, nil)
				}
			}
		}
	}

	for seed := int64(0); seed < 256; seed++ {
		top, g, base := randomDesign(rand.New(rand.NewSource(seed)))
		checkAgainstReference(t, fmt.Sprintf("random design %d", seed), top, g, base)
	}
}

// randomDesign builds a small random topology with random faults, chord
// weights (including non-positive ones, which fall back to 1, and
// negligible ones) and flows drawn from a few repeated bandwidths, so
// equal-cost ties are common.
func randomDesign(rng *rand.Rand) (*topology.Topology, *traffic.Graph, map[topology.LinkID]float64) {
	nSw := 2 + rng.Intn(7)
	top := topology.New("fuzz")
	for i := 0; i < nSw; i++ {
		top.AddSwitch("")
	}
	density := rng.Float64()
	for a := 0; a < nSw; a++ {
		for b := 0; b < nSw; b++ {
			if a != b && rng.Float64() < density {
				top.MustAddLink(topology.SwitchID(a), topology.SwitchID(b))
			}
		}
	}
	base := make(map[topology.LinkID]float64)
	var faults []topology.LinkID
	for id := 0; id < top.NumLinks(); id++ {
		switch rng.Intn(6) {
		case 0:
			faults = append(faults, topology.LinkID(id))
		case 1:
			base[topology.LinkID(id)] = 1.3
		case 2:
			// 1e-17 vanishes when added to a distance of 1 or more, so
			// equal-priority frontier entries reach the heap's node order.
			base[topology.LinkID(id)] = []float64{0, -1, 0.5, 2, 1e-17}[rng.Intn(5)]
		}
	}
	if err := top.Fault(faults...); err != nil {
		panic(err)
	}
	nCores := 2 + rng.Intn(10)
	g := traffic.NewGraph("fuzz")
	for c := 0; c < nCores; c++ {
		g.AddCore("")
		if err := top.AttachCore(c, topology.SwitchID(rng.Intn(nSw))); err != nil {
			panic(err)
		}
	}
	bandwidths := []float64{1, 2, 2, 5, 5, 5}
	for i, n := 0, 1+rng.Intn(24); i < n; i++ {
		src := traffic.CoreID(rng.Intn(nCores))
		dst := traffic.CoreID(rng.Intn(nCores))
		if src == dst {
			continue
		}
		g.MustAddFlow(src, dst, bandwidths[rng.Intn(len(bandwidths))])
	}
	return top, g, base
}

// FuzzShortestPaths checks the dense router against the oracle on random
// small faulted topologies with chord weights and tied bandwidths.
func FuzzShortestPaths(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, unweighted bool) {
		top, g, base := randomDesign(rand.New(rand.NewSource(seed)))
		if unweighted {
			base = nil
		}
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), top, g, base)
	})
}
