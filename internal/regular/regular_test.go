package regular

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

func TestMeshShape(t *testing.T) {
	g, err := Mesh(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Topology.NumSwitches() != 12 {
		t.Errorf("switches = %d, want 12", g.Topology.NumSwitches())
	}
	// 2*( (4-1)*3 + (3-1)*4 ) = 2*(9+8) = 34 links.
	if g.Topology.NumLinks() != 34 {
		t.Errorf("links = %d, want 34", g.Topology.NumLinks())
	}
	if err := g.Topology.Validate(); err != nil {
		t.Error(err)
	}
	x, y := g.Coord(g.SwitchAt(3, 2))
	if x != 3 || y != 2 {
		t.Error("coordinate round trip broken")
	}
}

func TestTorusShape(t *testing.T) {
	g, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Full torus: every switch has degree 4 (bidirectional) → 2*2*16 = 64.
	if g.Topology.NumLinks() != 64 {
		t.Errorf("links = %d, want 64", g.Topology.NumLinks())
	}
	for _, sw := range g.Topology.Switches() {
		if d := g.Topology.Degree(sw.ID); d != 8 {
			t.Errorf("switch %d degree %d, want 8 (4 in + 4 out)", sw.ID, d)
		}
	}
}

func TestTorusDim2NoDuplicateWrap(t *testing.T) {
	g, err := Torus(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Topology.Validate(); err != nil {
		t.Errorf("2-wide torus invalid (duplicate wrap links?): %v", err)
	}
}

func TestGridTooSmall(t *testing.T) {
	if _, err := Mesh(1, 1); err == nil {
		t.Error("1x1 mesh accepted")
	}
	if _, err := Ring(2, false); err == nil {
		t.Error("2-ring accepted")
	}
}

func TestRing(t *testing.T) {
	uni, err := Ring(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if uni.Topology.NumLinks() != 5 {
		t.Errorf("unidirectional ring links = %d, want 5", uni.Topology.NumLinks())
	}
	bidi, err := Ring(5, true)
	if err != nil {
		t.Fatal(err)
	}
	if bidi.Topology.NumLinks() != 10 {
		t.Errorf("bidirectional ring links = %d, want 10", bidi.Topology.NumLinks())
	}
}

func TestUniformTraffic(t *testing.T) {
	g, err := UniformTraffic(8, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumFlows() != 8 {
		t.Errorf("flows = %d, want 8", g.NumFlows())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := UniformTraffic(8, 8, 50); err == nil {
		t.Error("stride == n accepted (self-flows)")
	}
}

func TestXYOnMeshIsDeadlockFree(t *testing.T) {
	// The textbook result: XY routing on a mesh has an acyclic CDG, so
	// the removal algorithm must be a no-op.
	g, err := Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	tg := traffic.RandomKOut("mesh-traffic", 16, 4, 11)
	tab, err := DORRoutes(g, tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(g.Topology, tg); err != nil {
		t.Fatal(err)
	}
	c, err := cdg.Build(g.Topology, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Acyclic() {
		t.Fatal("XY on mesh produced a cyclic CDG")
	}
	res, err := core.Remove(g.Topology, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitialAcyclic || res.AddedVCs != 0 {
		t.Errorf("removal not a no-op on mesh: %+v", res)
	}
}

func TestDORTorusIsCyclicAndRepairable(t *testing.T) {
	// The dateline problem: minimal DOR on a torus rides the wrap links
	// and closes dependency rings in both dimensions. The removal
	// algorithm must repair it with a modest number of VCs.
	g, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Stride-5 permutation traffic (1 right, 1 up after wrap arithmetic)
	// pushes flows across both datelines.
	tg, err := UniformTraffic(16, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := DORRoutes(g, tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(g.Topology, tg); err != nil {
		t.Fatal(err)
	}
	c, err := cdg.Build(g.Topology, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Acyclic() {
		t.Skip("this permutation did not close a wrap cycle; torus stress below covers it")
	}
	res, err := core.Remove(g.Topology, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AddedVCs == 0 {
		t.Error("cyclic torus repaired for free?")
	}
	// A dateline fix needs on the order of one extra VC per wrapped row/
	// column actually used, far fewer than one per link.
	if res.AddedVCs > g.Topology.NumLinks()/2 {
		t.Errorf("removal added %d VCs on %d links; expected a dateline-like handful",
			res.AddedVCs, g.Topology.NumLinks())
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRingAllToNeighborPlusTwo(t *testing.T) {
	// Unidirectional ring with stride-2 traffic: every flow crosses two
	// links, the CDG is one big cycle, and removal must fix it.
	g, err := Ring(6, false)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := UniformTraffic(6, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	// DOR on a 1-row grid walks the X dimension with wrap.
	tab, err := DORRoutes(g, tg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cdg.Build(g.Topology, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.Acyclic() {
		t.Fatal("stride-2 on a unidirectional ring must be cyclic")
	}
	res, err := core.Remove(g.Topology, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRepairedTorusSurvivesSaturation(t *testing.T) {
	// End-to-end: torus + DOR + removal, then saturate in the simulator.
	g, err := Torus(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := UniformTraffic(9, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := DORRoutes(g, tg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Remove(g.Topology, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := simulate(res, tg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("repaired torus deadlocked")
	}
	if st.DeliveredPackets == 0 {
		t.Error("repaired torus delivered nothing")
	}
}

func simulate(res *core.Result, tg *traffic.Graph) (*wormhole.Stats, error) {
	sim, err := wormhole.New(res.Topology, tg, res.Routes, wormhole.Config{
		MaxCycles:   20000,
		LoadFactor:  1.0,
		BufferDepth: 2,
		Seed:        5,
	})
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// TestDORUnreachableCore ensures routing reports unattached cores.
func TestDORUnreachableCore(t *testing.T) {
	g, err := Mesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg := traffic.NewGraph("bad")
	for i := 0; i < 6; i++ {
		tg.AddCore("")
	}
	tg.MustAddFlow(0, 5, 1) // core 5 has no switch on a 4-switch mesh
	if _, err := DORRoutes(g, tg); err == nil {
		t.Error("unattached core accepted")
	}
}

// referenceSelectFaults is SelectFaults as it was first written, kept as
// the oracle for the CSR check: it rebuilds a map-based switch graph and
// its reverse for every candidate.
func referenceSelectFaults(g *Grid, n int, seed int64) ([]topology.LinkID, error) {
	top := g.Topology
	if n < 0 {
		return nil, fmt.Errorf("regular: negative fault count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if n >= top.NumLinks() {
		return nil, fmt.Errorf("regular: cannot fault %d of %d links", n, top.NumLinks())
	}
	order := shuffledLinks(top.NumLinks(), uint64(seed)*0x9e3779b97f4a7c15+0x1234567)
	faulted := make(map[topology.LinkID]bool, n)
	var picked []topology.LinkID
	for _, id := range order {
		if len(picked) == n {
			break
		}
		if top.Faulted(id) {
			continue
		}
		faulted[id] = true
		if referenceStronglyConnected(top, faulted) {
			picked = append(picked, id)
		} else {
			delete(faulted, id)
		}
	}
	if len(picked) < n {
		return nil, fmt.Errorf("regular: only %d of %d requested faults keep %s connected",
			len(picked), n, top.Name)
	}
	return picked, nil
}

func referenceStronglyConnected(top *topology.Topology, extraFaults map[topology.LinkID]bool) bool {
	n := top.NumSwitches()
	if n <= 1 {
		return true
	}
	fwd := map[int][]int{}
	rev := map[int][]int{}
	for _, l := range top.Links() {
		if top.Faulted(l.ID) || extraFaults[l.ID] {
			continue
		}
		fwd[int(l.From)] = append(fwd[int(l.From)], int(l.To))
		rev[int(l.To)] = append(rev[int(l.To)], int(l.From))
	}
	reachesAll := func(adj map[int][]int) bool {
		seen := map[int]bool{0: true}
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		return len(seen) == n
	}
	return reachesAll(fwd) && reachesAll(rev)
}

// TestSelectFaultsMatchesReference pins the CSR fault check to the
// map-based oracle: the same picks in the same order, or the same error,
// across grid shapes, fault counts and seeds, on pre-faulted grids, and
// at counts that exhaust the links a grid can lose.
func TestSelectFaultsMatchesReference(t *testing.T) {
	check := func(label string, g *Grid, n int, seed int64) {
		t.Helper()
		got, gotErr := SelectFaults(g, n, seed)
		want, wantErr := referenceSelectFaults(g, n, seed)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
			t.Fatalf("%s n=%d seed=%d: got %v, %v; want %v, %v", label, n, seed, got, gotErr, want, wantErr)
		}
	}
	build := func(wrap bool, cols, rows int) *Grid {
		t.Helper()
		g, err := grid(cols, rows, wrap)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	shapes := [][2]int{{2, 2}, {2, 3}, {3, 3}, {4, 3}, {4, 4}, {5, 5}, {6, 6}, {3, 7}, {7, 7}, {8, 8}}
	for _, wrap := range []bool{false, true} {
		for _, dims := range shapes {
			g := build(wrap, dims[0], dims[1])
			label := g.Topology.Name
			for n := 0; n <= 6; n++ {
				for seed := int64(0); seed < 32; seed++ {
					check(label, g, n, seed)
				}
			}
			// Pre-faulted: two links down before selection starts.
			pre := build(wrap, dims[0], dims[1])
			ids, err := referenceSelectFaults(pre, 2, 99)
			if err != nil {
				t.Fatal(err)
			}
			if err := pre.Topology.Fault(ids...); err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 4; n++ {
				for seed := int64(0); seed < 8; seed++ {
					check(label+" pre-faulted", pre, n, seed)
				}
			}
			// Exhaustion: more faults than a strongly connected grid can
			// lose (it keeps at least one link per switch), and the
			// bounds on n itself. The oracle is slow on large grids.
			links := g.Topology.NumLinks()
			if links <= 64 {
				for _, n := range []int{links - g.Topology.NumSwitches() + 1, links - 1} {
					check(label, g, n, 5)
				}
			}
			for _, n := range []int{links, -1} {
				check(label, g, n, 5)
			}
		}
	}
	// A unidirectional ring loses connectivity with any fault.
	for _, n := range []int{1, 3} {
		ring, err := Ring(5, false)
		if err != nil {
			t.Fatal(err)
		}
		check("ring", ring, n, 0)
		if _, err := SelectFaults(ring, n, 0); err == nil {
			t.Errorf("ring: %d faults accepted", n)
		}
	}
}

// unsizedGrid is the grid construction before it was pre-sized: names
// from fmt.Sprintf, and a topology grown one switch, core and link at a
// time. It is the oracle for the sized build.
func unsizedGrid(cols, rows int, wrap bool) *topology.Topology {
	top := topology.New(fmt.Sprintf("%s_%dx%d", kind(wrap), cols, rows))
	g := &Grid{Topology: top, Cols: cols, Rows: rows, Wrap: wrap}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			sw := top.AddSwitch(fmt.Sprintf("s%d_%d", x, y))
			top.AttachCore(int(sw), sw)
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x+1, y))
			} else if wrap && cols > 2 {
				top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(0, y))
			}
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if y+1 < rows {
				top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x, y+1))
			} else if wrap && rows > 2 {
				top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x, 0))
			}
		}
	}
	return top
}

// TestGridSizedMatchesUnsized pins the pre-sized grid build: for every
// size from 2x1 to 8x8, Mesh and Torus serialize byte for byte as the
// unsized construction does, and the link count the build sizes for is
// the count it makes.
func TestGridSizedMatchesUnsized(t *testing.T) {
	for cols := 2; cols <= 8; cols++ {
		for rows := 1; rows <= 8; rows++ {
			for _, wrap := range []bool{false, true} {
				build := Mesh
				if wrap {
					build = Torus
				}
				g, err := build(cols, rows)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.Topology.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				want, err := unsizedGrid(cols, rows, wrap).MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s: sized build serializes differently from the unsized one", g.Topology.Name)
				}
				if n := g.Topology.NumLinks(); n != gridLinks(cols, rows, wrap) {
					t.Fatalf("%s: %d links, sized for %d", g.Topology.Name, n, gridLinks(cols, rows, wrap))
				}
			}
		}
	}
}

// TestDORRoutesFaultNamesFlowAndLink pins DORRoutes' error on a faulted
// XY path: it names the first flow whose path crosses the fault and the
// faulted link, wraps ErrInvalidInput, and advises an adaptive routing.
func TestDORRoutesFaultNamesFlowAndLink(t *testing.T) {
	g, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tg := traffic.NewGraph("faulted")
	for i := 0; i < 9; i++ {
		tg.AddCore("")
	}
	tg.MustAddFlow(3, 5, 1) // (0,1) → (2,1): stays off the fault
	tg.MustAddFlow(0, 2, 1) // (0,0) → (2,0): crosses (1,0)→(2,0)
	link, ok := g.Topology.FindLink(g.SwitchAt(1, 0), g.SwitchAt(2, 0))
	if !ok {
		t.Fatal("no link (1,0)→(2,0)")
	}
	if err := g.Topology.Fault(link); err != nil {
		t.Fatal(err)
	}
	_, err = DORRoutes(g, tg)
	want := fmt.Sprintf("regular: DOR route for flow 1: route: DOR path crosses faulted link %d: invalid input (deterministic DOR cannot route around faults; use an adaptive routing)", link)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("%v does not wrap ErrInvalidInput", err)
	}
}
