package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	nocdr "github.com/nocdr/nocdr"
)

// writeRing writes the paper's Figure 1 design (topology, traffic,
// routes) as JSON files and returns their paths.
func writeRing(t *testing.T) (topoPath, trafficPath, routesPath string) {
	t.Helper()
	dir := t.TempDir()
	top := nocdr.NewTopology("ring")
	for i := 0; i < 4; i++ {
		sw := top.AddSwitch("")
		if err := top.AttachCore(i, sw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(nocdr.SwitchID(i), nocdr.SwitchID((i+1)%4))
	}
	g := nocdr.NewTraffic("ringflows")
	for i := 0; i < 4; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, 3, 100)
	g.MustAddFlow(2, 0, 100)
	g.MustAddFlow(3, 1, 100)
	g.MustAddFlow(0, 2, 100)
	tab := nocdr.NewRouteTable(4)
	ch := func(ids ...int) []nocdr.Channel {
		out := make([]nocdr.Channel, len(ids))
		for i, id := range ids {
			out[i] = nocdr.Chan(nocdr.LinkID(id), 0)
		}
		return out
	}
	tab.Set(0, ch(0, 1, 2))
	tab.Set(1, ch(2, 3))
	tab.Set(2, ch(3, 0))
	tab.Set(3, ch(0, 1))

	topoPath = filepath.Join(dir, "topology.json")
	trafficPath = filepath.Join(dir, "traffic.json")
	routesPath = filepath.Join(dir, "routes.json")
	if err := nocdr.SaveJSON(topoPath, top); err != nil {
		t.Fatal(err)
	}
	if err := nocdr.SaveJSON(trafficPath, g); err != nil {
		t.Fatal(err)
	}
	if err := nocdr.SaveJSON(routesPath, tab); err != nil {
		t.Fatal(err)
	}
	return topoPath, trafficPath, routesPath
}

// TestMain lets a test run this binary as the nocdr command itself: with
// NOCDR_TEST_AS_MAIN=1 in its environment, the process runs main on its
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("NOCDR_TEST_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestErrorPrefixedOnce runs the command as a process and pins what a
// failing command prints: one "nocdr: " prefix, whether the error comes
// from the library, which already prefixes it, or from the command's
// own flag checks.
func TestErrorPrefixedOnce(t *testing.T) {
	topo, routes := writeUnknownLink(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"check", "-topology", topo, "-routes", routes}, "nocdr: cdg: flow 0 hop 1 uses unprovisioned channel {99 0}\n"},
		{[]string{"check", "-routes", routes}, "nocdr: -topology and -routes are required\n"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "NOCDR_TEST_AS_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("nocdr %v: %v, want exit status 1", c.args, err)
		}
		if got := stderr.String(); got != c.want {
			t.Errorf("nocdr %v printed %q, want %q", c.args, got, c.want)
		}
	}
}

func TestRunCheck(t *testing.T) {
	topo, tr, routes := writeRing(t)
	if err := runCheck([]string{"-topology", topo, "-routes", routes, "-traffic", tr}); err != nil {
		t.Errorf("check failed: %v", err)
	}
	if err := runCheck([]string{"-routes", routes}); err == nil {
		t.Error("check without -topology accepted")
	}
	if err := runCheck([]string{"-topology", "/nope.json", "-routes", routes}); err == nil {
		t.Error("check with missing file accepted")
	}
}

func TestRunRemoveWritesOutputs(t *testing.T) {
	topo, tr, routes := writeRing(t)
	dir := t.TempDir()
	outTopo := filepath.Join(dir, "fixed-topo.json")
	outRoutes := filepath.Join(dir, "fixed-routes.json")
	err := runRemove(context.Background(), []string{
		"-topology", topo, "-routes", routes, "-traffic", tr,
		"-out-topology", outTopo, "-out-routes", outRoutes, "-v",
	})
	if err != nil {
		t.Fatalf("remove failed: %v", err)
	}
	fixedTop, err := nocdr.LoadTopology(outTopo)
	if err != nil {
		t.Fatal(err)
	}
	fixedTab, err := nocdr.LoadRoutes(outRoutes)
	if err != nil {
		t.Fatal(err)
	}
	free, err := nocdr.NewSession().DeadlockFree(fixedTop, fixedTab)
	if err != nil {
		t.Fatal(err)
	}
	if !free {
		t.Error("written design is not deadlock-free")
	}
	if fixedTop.ExtraVCs() != 1 {
		t.Errorf("written topology has %d extra VCs, want 1", fixedTop.ExtraVCs())
	}
}

func TestRunOrdering(t *testing.T) {
	topo, _, routes := writeRing(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "ro-topo.json")
	for _, scheme := range []string{"hop", "bfs", "id"} {
		err := runOrdering([]string{
			"-topology", topo, "-routes", routes, "-scheme", scheme, "-out-topology", out,
		})
		if err != nil {
			t.Errorf("ordering scheme %s failed: %v", scheme, err)
		}
		if _, err := os.Stat(out); err != nil {
			t.Errorf("scheme %s wrote no topology: %v", scheme, err)
		}
	}
	if err := runOrdering([]string{"-topology", topo, "-routes", routes, "-scheme", "xyz"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// writeUnknownLink writes a one-link topology and a route whose second
// hop uses link 99, which the topology lacks, and returns their paths.
func writeUnknownLink(t *testing.T) (topo, routes string) {
	t.Helper()
	dir := t.TempDir()
	top := nocdr.NewTopology("one-link")
	a, b := top.AddSwitch(""), top.AddSwitch("")
	top.MustAddLink(a, b)
	tab := nocdr.NewRouteTable(1)
	tab.Set(0, []nocdr.Channel{nocdr.Chan(0, 0), nocdr.Chan(99, 0)})
	topo, routes = filepath.Join(dir, "t.json"), filepath.Join(dir, "r.json")
	if err := nocdr.SaveJSON(topo, top); err != nil {
		t.Fatal(err)
	}
	if err := nocdr.SaveJSON(routes, tab); err != nil {
		t.Fatal(err)
	}
	return topo, routes
}

// TestRunOrderingUnknownLink: without -traffic the routes go unvalidated,
// so a route over a link the topology lacks reaches the baseline, which
// must fail with an error rather than panic.
func TestRunOrderingUnknownLink(t *testing.T) {
	topo, routes := writeUnknownLink(t)
	for _, scheme := range []string{"hop", "bfs", "id"} {
		err := runOrdering([]string{"-topology", topo, "-routes", routes, "-scheme", scheme})
		if !errors.Is(err, nocdr.ErrInvalidInput) {
			t.Errorf("scheme %s: error %v does not wrap ErrInvalidInput", scheme, err)
		}
	}
}

func TestRunSynthAndSim(t *testing.T) {
	_, tr, _ := writeRing(t)
	dir := t.TempDir()
	outTopo := filepath.Join(dir, "synth-topo.json")
	outRoutes := filepath.Join(dir, "synth-routes.json")
	err := runSynth(context.Background(), []string{
		"-traffic", tr, "-switches", "3",
		"-out-topology", outTopo, "-out-routes", outRoutes,
	})
	if err != nil {
		t.Fatalf("synth failed: %v", err)
	}
	err = runSim(context.Background(), []string{
		"-topology", outTopo, "-routes", outRoutes, "-traffic", tr,
		"-cycles", "5000", "-packets", "10",
	})
	if err != nil {
		t.Fatalf("sim failed: %v", err)
	}
	if err := runSynth(context.Background(), []string{"-switches", "3"}); err == nil {
		t.Error("synth without traffic accepted")
	}
	if err := runSim(context.Background(), []string{"-topology", outTopo, "-routes", outRoutes}); err == nil {
		t.Error("sim without traffic accepted")
	}
}

func TestRunDot(t *testing.T) {
	topo, _, routes := writeRing(t)
	if err := runDot([]string{"-topology", topo}); err != nil {
		t.Errorf("dot failed: %v", err)
	}
	if err := runDot([]string{"-topology", topo, "-cdg", "-routes", routes}); err != nil {
		t.Errorf("dot -cdg failed: %v", err)
	}
	if err := runDot([]string{"-topology", topo, "-cdg"}); err == nil {
		t.Error("dot -cdg without routes accepted")
	}
	if err := runDot([]string{}); err == nil {
		t.Error("dot without topology accepted")
	}
}

// TestCDGOutputGolden runs the command as a process and pins the bytes
// `nocdr check` and `nocdr dot -cdg` print for two cyclic designs under
// testdata: the paper's Figure 1 ring, and a multi-VC ring with a chord
// pair whose CDG has three cycles, two of them tied for smallest.
func TestCDGOutputGolden(t *testing.T) {
	for _, design := range []string{"ring", "multivc"} {
		topo := filepath.Join("testdata", design+"_topology.json")
		routes := filepath.Join("testdata", design+"_routes.json")
		for _, c := range []struct {
			golden string
			args   []string
		}{
			{"check", []string{"check", "-topology", topo, "-routes", routes}},
			{"dot_cdg", []string{"dot", "-cdg", "-topology", topo, "-routes", routes}},
		} {
			want, err := os.ReadFile(filepath.Join("testdata", design+"_"+c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), "NOCDR_TEST_AS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("nocdr %v: %v", c.args, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("nocdr %v printed\n%s\nwant\n%s", c.args, got, want)
			}
		}
	}
}

func TestRunBench(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "d26.json")
	if err := runBench([]string{"-name", "D26_media", "-out", out}); err != nil {
		t.Fatalf("bench failed: %v", err)
	}
	g, err := nocdr.LoadTraffic(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCores() != 26 {
		t.Errorf("exported benchmark has %d cores", g.NumCores())
	}
	if err := runBench([]string{"-name", "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runBench([]string{}); err == nil {
		t.Error("bench without name accepted")
	}
}

func TestRoutesInconsistentWithTraffic(t *testing.T) {
	topo, _, routes := writeRing(t)
	// Traffic with an extra flow that has no route: validation must fail.
	dir := t.TempDir()
	g := nocdr.NewTraffic("bad")
	for i := 0; i < 5; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, 1, 1)
	g.MustAddFlow(1, 2, 1)
	g.MustAddFlow(2, 3, 1)
	g.MustAddFlow(3, 4, 1)
	g.MustAddFlow(4, 0, 1)
	badTraffic := filepath.Join(dir, "bad.json")
	if err := nocdr.SaveJSON(badTraffic, g); err != nil {
		t.Fatal(err)
	}
	if err := runCheck([]string{"-topology", topo, "-routes", routes, "-traffic", badTraffic}); err == nil {
		t.Error("inconsistent traffic accepted")
	}
}
