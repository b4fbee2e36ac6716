package cdg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// paperExample builds Figure 1's ring topology plus the four routes that
// produce the cyclic CDG of Figure 2.
func paperExample(t *testing.T) (*topology.Topology, *route.Table) {
	t.Helper()
	top := topology.New("figure1")
	for i := 0; i < 4; i++ {
		top.AddSwitch("")
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	tab := route.NewTable(4)
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	tab.Set(0, ch(0, 1, 2)) // F1 = {L1, L2, L3}
	tab.Set(1, ch(2, 3))    // F2 = {L3, L4}
	tab.Set(2, ch(3, 0))    // F3 = {L4, L1}
	tab.Set(3, ch(0, 1))    // F4 = {L1, L2}
	return top, tab
}

func TestBuildPaperCDG(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumChannels() != 4 {
		t.Errorf("NumChannels = %d, want 4", c.NumChannels())
	}
	// Figure 2's dependencies: L1→L2, L2→L3, L3→L4, L4→L1.
	wantDeps := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	if c.NumDependencies() != len(wantDeps) {
		t.Errorf("NumDependencies = %d, want %d", c.NumDependencies(), len(wantDeps))
	}
	for _, d := range wantDeps {
		from := topology.Chan(topology.LinkID(d[0]), 0)
		to := topology.Chan(topology.LinkID(d[1]), 0)
		if !c.HasDependency(from, to) {
			t.Errorf("missing dependency L%d→L%d", d[0]+1, d[1]+1)
		}
	}
	if c.Acyclic() {
		t.Error("paper CDG reported acyclic; Figure 2 has a cycle")
	}
}

func TestFlowsOnDependencies(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	l1 := topology.Chan(0, 0)
	l2 := topology.Chan(1, 0)
	// L1→L2 is created by F1 (flow 0) and F4 (flow 3).
	got := c.FlowsOn(l1, l2)
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("FlowsOn(L1,L2) = %v, want [0 3]", got)
	}
	if c.FlowsOn(l2, l1) != nil {
		t.Error("FlowsOn on missing dependency returned flows")
	}
}

func TestSmallestCyclePaper(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	cyc := c.SmallestCycle()
	if len(cyc) != 4 {
		t.Fatalf("SmallestCycle length = %d, want 4", len(cyc))
	}
	// Must be the ring L1→L2→L3→L4 in order, starting at L1 (vertex 0).
	for i, ch := range cyc {
		if ch != topology.Chan(topology.LinkID(i), 0) {
			t.Errorf("cycle[%d] = %v, want L%d", i, ch, i+1)
		}
	}
}

func TestModifiedCDGAcyclic(t *testing.T) {
	// Figure 3: adding L1' and moving F3 onto it makes the CDG acyclic.
	top, tab := paperExample(t)
	vc, err := top.AddVC(0)
	if err != nil {
		t.Fatal(err)
	}
	tab.Set(2, []topology.Channel{topology.Chan(3, 0), topology.Chan(0, vc)})
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Acyclic() {
		t.Error("modified CDG still cyclic; Figure 3 is acyclic")
	}
	if c.NumChannels() != 5 {
		t.Errorf("NumChannels = %d, want 5", c.NumChannels())
	}
	if c.SmallestCycle() != nil {
		t.Error("SmallestCycle non-nil on acyclic CDG")
	}
}

func TestBuildRejectsUnprovisionedChannel(t *testing.T) {
	top, tab := paperExample(t)
	tab.Set(0, []topology.Channel{topology.Chan(0, 3)}) // VC 3 never added
	if _, err := Build(top, tab); err == nil {
		t.Error("unprovisioned channel accepted")
	}
}

func TestEmptyRoutesNoDeps(t *testing.T) {
	top, _ := paperExample(t)
	tab := route.NewTable(2)
	tab.Set(0, nil)
	tab.Set(1, []topology.Channel{topology.Chan(0, 0)}) // single hop: no dep
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDependencies() != 0 {
		t.Errorf("NumDependencies = %d, want 0", c.NumDependencies())
	}
	if !c.Acyclic() {
		t.Error("dependency-free CDG not acyclic")
	}
}

func TestVertexMapping(t *testing.T) {
	top, tab := paperExample(t)
	top.AddVC(2)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.NumChannels(); id++ {
		ch := c.Channel(id)
		back, ok := c.VertexOf(ch)
		if !ok || back != id {
			t.Errorf("vertex mapping not bijective at %d (%v)", id, ch)
		}
	}
	if _, ok := c.VertexOf(topology.Chan(0, 9)); ok {
		t.Error("VertexOf accepted unknown channel")
	}
}

func TestDependenciesSortedAndComplete(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	deps := c.Dependencies()
	if len(deps) != 4 {
		t.Fatalf("Dependencies() = %d entries", len(deps))
	}
	// First dependency must be L1→L2 with flows [0 3].
	if deps[0].From != topology.Chan(0, 0) || deps[0].To != topology.Chan(1, 0) {
		t.Errorf("deps[0] = %v→%v", deps[0].From, deps[0].To)
	}
	if len(deps[0].Flows) != 2 {
		t.Errorf("deps[0].Flows = %v", deps[0].Flows)
	}
}

// buildVC0 builds the CDG of routes over VC 0 of linkRing(links)'s
// links, one route per list of link indexes.
func buildVC0(t *testing.T, links int, routes ...[]int) *CDG {
	t.Helper()
	tab := route.NewTable(len(routes))
	for f, r := range routes {
		tab.Set(f, vc0(r...))
	}
	c, err := Build(linkRing(links), tab)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountCycles(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.CountCycles(0); n != 1 {
		t.Errorf("CountCycles = %d, want 1", n)
	}
}

// TestCountCyclesLimit counts three cycles, L1↔L2, L2↔L3 and L4's
// self-dependency, and pins that a limit caps the count.
func TestCountCyclesLimit(t *testing.T) {
	c := buildVC0(t, 4, []int{0, 1}, []int{1, 0}, []int{1, 2}, []int{2, 1}, []int{3, 3})
	for limit, want := range map[int]int{0: 3, 2: 2, 1: 1, 5: 3} {
		if n := c.CountCycles(limit); n != want {
			t.Errorf("CountCycles(%d) = %d, want %d", limit, n, want)
		}
	}
}

func TestCyclicChannels(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	got := c.CyclicChannels()
	if len(got) != 4 {
		t.Errorf("CyclicChannels = %v, want all 4", got)
	}
}

func TestStringAndDOT(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.String(); !strings.Contains(s, "cyclic") || !strings.Contains(s, "4 channels") {
		t.Errorf("String = %q", s)
	}
	var buf bytes.Buffer
	if err := c.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	dot := buf.String()
	for _, want := range []string{"digraph cdg", `label="L1"`, "F1,F4", "peripheries=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	top, tab := paperExample(t)
	a, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	da, db := a.Dependencies(), b.Dependencies()
	if len(da) != len(db) {
		t.Fatal("nondeterministic dependency count")
	}
	for i := range da {
		if da[i].From != db[i].From || da[i].To != db[i].To {
			t.Fatalf("dependency %d differs", i)
		}
	}
}

func TestSmallestCycleThrough(t *testing.T) {
	top, tab := paperExample(t)
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	cyc := c.SmallestCycleThrough(topology.Chan(1, 0))
	if len(cyc) != 4 || cyc[0] != topology.Chan(1, 0) {
		t.Errorf("SmallestCycleThrough(L2) = %v, want 4-cycle starting at L2", cyc)
	}
	if got := c.SmallestCycleThrough(topology.Chan(0, 9)); got != nil {
		t.Error("unknown channel returned a cycle")
	}
	// After breaking the cycle (Figure 3: only F3 moves onto L1'), no
	// channel lies on a cycle any more.
	top2, tab2 := paperExample(t)
	vc, _ := top2.AddVC(0)
	tab2.Set(2, []topology.Channel{topology.Chan(3, 0), topology.Chan(0, vc)})
	c2, err := Build(top2, tab2)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Acyclic() {
		t.Fatal("Figure 3 configuration not acyclic")
	}
	if got := c2.SmallestCycleThrough(topology.Chan(1, 0)); got != nil {
		t.Errorf("acyclic CDG returned cycle %v", got)
	}
}

// TestSmallestCycleThroughPicksLocalShortest pins that the search
// through L1, which lies on the 4-cycle L1→L2→L3→L4 and the 2-cycle
// L1↔L5, returns the 2-cycle.
func TestSmallestCycleThroughPicksLocalShortest(t *testing.T) {
	c := buildVC0(t, 5, []int{0, 1, 2, 3}, []int{3, 0}, []int{0, 4}, []int{4, 0})
	if got, want := c.SmallestCycleThrough(topology.Chan(0, 0)), vc0(0, 4); !reflect.DeepEqual(got, want) {
		t.Errorf("SmallestCycleThrough(L1) = %v, want %v", got, want)
	}
}

// TestSmallestCycleSelfDependency pins that a self-dependency (a route
// repeating a channel back to back) is the smallest cycle even when a
// 2-cycle sits on smaller channels.
func TestSmallestCycleSelfDependency(t *testing.T) {
	c := buildVC0(t, 4, []int{0, 1}, []int{1, 0}, []int{3, 3})
	if got, want := c.SmallestCycle(), vc0(3); !reflect.DeepEqual(got, want) {
		t.Errorf("SmallestCycle = %v, want the self-dependency %v", got, want)
	}
}

// TestSmallestCycleSelfDependencyLaterInComponent pins that a
// self-dependency beats a 2-cycle inside the same strongly connected
// component, even when the 2-cycle sits on smaller channels: with
// channels A < B < C and routes A→B, B→A, B→C and C→C→A, all three are
// one component, and C's self-dependency is the smallest cycle.
func TestSmallestCycleSelfDependencyLaterInComponent(t *testing.T) {
	c := buildVC0(t, 3, []int{0, 1}, []int{1, 0}, []int{1, 2}, []int{2, 2, 0})
	if got, want := c.SmallestCycle(), vc0(2); !reflect.DeepEqual(got, want) {
		t.Errorf("SmallestCycle = %v, want the self-dependency %v", got, want)
	}
}

// TestRepeatedDependencyListsFlowOnce pins that a route creating one
// dependency twice is listed once among its creators.
func TestRepeatedDependencyListsFlowOnce(t *testing.T) {
	c := buildVC0(t, 4, []int{0, 1, 0, 1}, []int{0, 1})
	l1, l2 := topology.Chan(0, 0), topology.Chan(1, 0)
	if got := c.FlowsOn(l1, l2); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("FlowsOn(L1, L2) = %v, want [0 1]", got)
	}
	var dot bytes.Buffer
	if err := c.WriteDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), `n0 -> n1 [label="F1,F2"]`) {
		t.Errorf("DOT does not label L1→L2 with F1,F2 once each:\n%s", dot.String())
	}
}

// TestSmallestCycleAgreementProperty: on random designs, self-
// dependencies allowed, SmallestCycle is nil iff the CDG is acyclic (as
// ProveAcyclic also finds), and otherwise a real cycle: every closing
// pair is a dependency and no channel repeats. Every cyclic channel has
// a cycle through it that starts at it, and none is shorter than
// SmallestCycle.
func TestSmallestCycleAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		links := 2 + rng.Intn(12)
		top := linkRing(links)
		for l := 0; l < links; l++ {
			for k := rng.Intn(3); k > 0; k-- {
				top.AddVC(topology.LinkID(l))
			}
		}
		chans := top.Channels()
		tab := route.NewTable(1 + rng.Intn(12))
		for flow := 0; flow < tab.NumFlows(); flow++ {
			path := make([]topology.Channel, 1+rng.Intn(5))
			for i := range path {
				path[i] = chans[rng.Intn(len(chans))]
			}
			tab.Set(flow, path)
		}
		c, err := Build(top, tab)
		if err != nil {
			t.Fatal(err)
		}
		cycle := c.SmallestCycle()
		proven, err := ProveAcyclic(top, tableWalk(tab))
		if (cycle == nil) != c.Acyclic() || c.Acyclic() != proven || err != nil {
			return false
		}
		seen := map[topology.Channel]bool{}
		for i, ch := range cycle {
			if seen[ch] || !c.HasDependency(ch, cycle[(i+1)%len(cycle)]) {
				return false
			}
			seen[ch] = true
		}
		for _, ch := range c.CyclicChannels() {
			through := c.SmallestCycleThrough(ch)
			if len(through) == 0 || through[0] != ch || len(through) < len(cycle) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentQueries queries one CDG from several goroutines at once;
// under -race it shows that every query only reads.
func TestConcurrentQueries(t *testing.T) {
	top := linkRing(5)
	top.AddVC(0)
	top.AddVC(2)
	tab := route.NewTable(6)
	for f, r := range [][]topology.Channel{
		vc0(0, 1, 2), vc0(2, 3, 4), vc0(4, 0),
		{topology.Chan(0, 1), topology.Chan(2, 1)},
		{topology.Chan(2, 1), topology.Chan(0, 1)},
		vc0(3, 3),
	} {
		tab.Set(f, r)
	}
	c, err := Build(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	query := func() string {
		var b strings.Builder
		fmt.Fprintln(&b, c, c.NumChannels(), c.NumDependencies(), c.Acyclic())
		fmt.Fprintln(&b, c.SmallestCycle(), c.CyclicChannels(), c.CountCycles(0), c.CountCycles(2))
		fmt.Fprintln(&b, c.Dependencies())
		for id := 0; id < c.NumChannels(); id++ {
			ch := c.Channel(id)
			v, ok := c.VertexOf(ch)
			fmt.Fprintln(&b, v, ok, c.SmallestCycleThrough(ch))
			for _, to := range top.Channels() {
				fmt.Fprint(&b, c.HasDependency(ch, to), c.FlowsOn(ch, to))
			}
		}
		if err := c.WriteDOT(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	want := query()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := query(); got != want {
					t.Errorf("concurrent query answered differently:\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRebindValidatesAgainstNewTopology pins what Rebind is for: a
// reroute onto a VC only the rebound topology has is refused before the
// rebind and accepted after it.
func TestRebindValidatesAgainstNewTopology(t *testing.T) {
	top, tab := paperExample(t)
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	clone := top.Clone()
	if _, err := clone.AddVC(0); err != nil {
		t.Fatal(err)
	}
	onClone := Reroute{FlowID: 3,
		Old: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)},
		New: []topology.Channel{topology.Chan(0, 1), topology.Chan(1, 0)}}
	if err := m.ApplyReroute(onClone); err == nil {
		t.Fatal("reroute onto a channel the bound topology lacks succeeded")
	}
	m.Rebind(clone)
	if err := m.ApplyReroute(onClone); err != nil {
		t.Fatalf("reroute onto rebound topology's channel: %v", err)
	}
}
