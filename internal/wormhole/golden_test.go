package wormhole_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// statsGoldenPath holds one line per golden cell: its name and the
// digest of the batch's []*Stats.
var statsGoldenPath = filepath.Join("testdata", "stats_golden.txt")

// goldenDesign is one simulated design of the golden matrix: a name and
// a batch constructor over it.
type goldenDesign struct {
	name     string
	adaptive bool
	mk       func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error)
}

// goldenModes are the run endings every design is pinned under: plain
// load (ending in a deadlock or the horizon), drain mode, DISHA recovery,
// and drain with recovery. Each runs as a three-lane batch.
var goldenModes = []struct {
	name string
	cfg  wormhole.Config
}{
	{"load", wormhole.Config{MaxCycles: 500, LoadFactor: 1.0}},
	{"drain", wormhole.Config{MaxCycles: 500, PacketsPerFlow: 2}},
	{"recovery", wormhole.Config{MaxCycles: 500, LoadFactor: 1.0, Recovery: true}},
	{"drain+recovery", wormhole.Config{MaxCycles: 500, PacketsPerFlow: 3, Recovery: true}},
}

var goldenVariants = []wormhole.Variant{{}, {Seed: 7, Load: 0.6}, {Seed: 123}}

// goldenDesigns builds the matrix: 6x6 mesh and torus under the five
// adaptive turn models, with 0 or 2 faulted links, before and (when the
// set was cyclic) after removal. On the table engine it adds, likewise,
// the 6x6 torus under dimension-ordered routes and the six paper
// benchmarks synthesized at 14 switches.
func goldenDesigns(t *testing.T) []goldenDesign {
	t.Helper()
	var out []goldenDesign
	for _, shape := range []string{"mesh", "torus"} {
		for _, faults := range []int{0, 2} {
			for _, model := range []route.TurnModel{route.WestFirst, route.NorthLast, route.NegativeFirst, route.OddEven, route.MinimalAdaptive} {
				grid, err := regular.Mesh(6, 6)
				if shape == "torus" {
					grid, err = regular.Torus(6, 6)
				}
				if err != nil {
					t.Fatal(err)
				}
				if faults > 0 {
					ids, err := regular.SelectFaults(grid, faults, 3)
					if err != nil {
						t.Fatal(err)
					}
					if err := grid.Topology.Fault(ids...); err != nil {
						t.Fatal(err)
					}
				}
				g := goldenTraffic()
				set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), model, 4)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.RemoveSetContext(context.Background(), grid.Topology, set, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s6x6/f%d/%s", shape, faults, model)
				pre := grid.Topology
				out = append(out, goldenDesign{name + "/pre", true, func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
					return wormhole.NewAdaptiveBatch(pre, g, set, cfg, vs)
				}})
				if res.InitialAcyclic {
					continue // removal changed nothing
				}
				post, postSet := res.Topology, res.Routes
				out = append(out, goldenDesign{name + "/post", true, func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
					return wormhole.NewAdaptiveBatch(post, g, postSet, cfg, vs)
				}})
			}
		}
	}
	addTable := func(name string, top *topology.Topology, g *traffic.Graph, tab *route.Table) {
		res, err := core.Remove(top, tab, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenDesign{name + "/pre", false, func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
			return wormhole.NewBatch(top, g, tab, cfg, vs)
		}})
		if res.InitialAcyclic {
			return
		}
		out = append(out, goldenDesign{name + "/post", false, func(cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
			return wormhole.NewBatch(res.Topology, g, res.Routes, cfg, vs)
		}})
	}
	torus, err := regular.Torus(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenTraffic()
	tab, err := regular.DORRoutes(torus, g)
	if err != nil {
		t.Fatal(err)
	}
	addTable("torus6x6/dor", torus.Topology, g, tab)
	for _, bench := range traffic.BenchmarkNames() {
		g, err := traffic.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
		if err != nil {
			t.Fatal(err)
		}
		addTable(bench+"@14", des.Topology, g, des.Routes)
	}
	return out
}

// goldenTraffic gives each of the 36 cores three 8-flit flows, to the
// cores 7, 11 and 29 positions ahead: every quadrant of turns is used,
// so min-adaptive sets come out cyclic.
func goldenTraffic() *traffic.Graph {
	g := traffic.NewGraph("golden")
	for i := 0; i < 36; i++ {
		g.AddCore("")
	}
	for i := 0; i < 36; i++ {
		for _, stride := range []int{7, 11, 29} {
			id := g.MustAddFlow(traffic.CoreID(i), traffic.CoreID((i+stride)%36), 100)
			if err := g.SetPacketFlits(id, 8); err != nil {
				panic(err)
			}
		}
	}
	return g
}

// statsDigest is a short content hash of a batch's per-lane statistics.
func statsDigest(t *testing.T, stats []*wormhole.Stats) string {
	t.Helper()
	b, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestStatsGolden pins every simulated number of both constructors
// against recorded digests: per cell, the []*Stats of a three-lane batch
// over a matrix of designs, selection policies and run endings. The
// reference arbitration covers only route tables, so this table is what
// pins adaptive selection, least-congested occupancy and recovery on
// route sets. A failure logs the whole regenerated table.
func TestStatsGolden(t *testing.T) {
	want := readStatsGolden(t)
	var got []string
	var deadlocked, recovered, policyDiffers int
	for _, d := range goldenDesigns(t) {
		policies := []wormhole.AdaptiveSelection{wormhole.FirstFree}
		if d.adaptive {
			policies = append(policies, wormhole.LeastCongested)
		}
		for _, mode := range goldenModes {
			var digests []string
			for _, sel := range policies {
				cfg := mode.cfg
				cfg.BufferDepth = 2
				cfg.StallThreshold = 64
				cfg.CollectLatencies = true
				cfg.Adaptive = sel
				b, err := d.mk(cfg, goldenVariants)
				if err != nil {
					t.Fatalf("%s/%s: %v", d.name, mode.name, err)
				}
				stats, err := b.Run()
				if err != nil {
					t.Fatalf("%s/%s: %v", d.name, mode.name, err)
				}
				for _, st := range stats {
					if st.Deadlocked {
						deadlocked++
					}
					if st.Recoveries > 0 {
						recovered++
					}
				}
				digest := statsDigest(t, stats)
				digests = append(digests, digest)
				got = append(got, fmt.Sprintf("%s/%s/%s %s", d.name, mode.name, sel, digest))
			}
			if len(digests) == 2 && digests[0] != digests[1] {
				policyDiffers++
			}
		}
	}
	if deadlocked == 0 || recovered == 0 || policyDiffers == 0 {
		t.Errorf("matrix lost its teeth: %d deadlocked lanes, %d recovering lanes, %d cells where the policies differ",
			deadlocked, recovered, policyDiffers)
	}
	t.Logf("%d cells; %d deadlocked lanes, %d recovering lanes, %d policy pairs differ", len(got), deadlocked, recovered, policyDiffers)
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Errorf("first divergence at line %d: got %q", i+1, got[i])
			break
		}
	}
	t.Fatalf("stats digests diverge from %s (%d lines, want %d); regenerated table:\n%s",
		statsGoldenPath, len(got), len(want), strings.Join(got, "\n"))
}

func readStatsGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(statsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
