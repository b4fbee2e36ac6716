package route

import (
	"testing"

	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// ringSetup builds the paper's Figure 1 ring with one core per switch and
// the four flows F1..F4 routed exactly as in the paper.
func ringSetup(t *testing.T) (*topology.Topology, *traffic.Graph, *Table) {
	t.Helper()
	top := topology.New("ring")
	for i := 0; i < 4; i++ {
		sw := top.AddSwitch("")
		if err := top.AttachCore(i, sw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	g := traffic.NewGraph("ringflows")
	for i := 0; i < 4; i++ {
		g.AddCore("")
	}
	// F1: core0→core3 via L1,L2,L3; F2: core2→core0 via L3,L4;
	// F3: core3→core1 via L4,L1; F4: core0→core2 via L1,L2.
	g.MustAddFlow(0, 3, 100)
	g.MustAddFlow(2, 0, 100)
	g.MustAddFlow(3, 1, 100)
	g.MustAddFlow(0, 2, 100)
	tab := NewTable(4)
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	tab.Set(0, ch(0, 1, 2))
	tab.Set(1, ch(2, 3))
	tab.Set(2, ch(3, 0))
	tab.Set(3, ch(0, 1))
	return top, g, tab
}

func TestValidateAcceptsPaperRoutes(t *testing.T) {
	top, g, tab := ringSetup(t)
	if err := tab.Validate(top, g); err != nil {
		t.Errorf("paper routes rejected: %v", err)
	}
}

func TestValidateCatchesBrokenRoutes(t *testing.T) {
	top, g, tab := ringSetup(t)

	bad := tab.Clone()
	bad.Set(0, []topology.Channel{topology.Chan(0, 0), topology.Chan(2, 0)}) // gap at SW2
	if err := bad.Validate(top, g); err == nil {
		t.Error("discontiguous route accepted")
	}

	bad = tab.Clone()
	bad.Set(0, []topology.Channel{topology.Chan(0, 5)}) // VC 5 not provisioned
	if err := bad.Validate(top, g); err == nil {
		t.Error("unprovisioned VC accepted")
	}

	bad = tab.Clone()
	bad.Set(0, nil) // empty route but cores on different switches
	if err := bad.Validate(top, g); err == nil {
		t.Error("empty route across switches accepted")
	}

	bad = NewTable(2)
	bad.Set(0, tab.Route(0).Channels)
	if err := bad.Validate(top, g); err == nil {
		t.Error("missing route accepted")
	}
}

func TestValidateCatchesLinkRevisit(t *testing.T) {
	top := topology.New("t")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	top.MustAddLink(a, b)
	top.MustAddLink(b, a)
	top.AttachCore(0, a)
	top.AttachCore(1, a)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 1)
	tab := NewTable(1)
	// a→b→a→b… reuses link 0: must be rejected even though it is contiguous.
	tab.Set(0, []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)})
	if err := tab.Validate(top, g); err != nil {
		t.Fatalf("legal round trip rejected: %v", err)
	}
	tab.Set(0, []topology.Channel{
		topology.Chan(0, 0), topology.Chan(1, 0), topology.Chan(0, 0), topology.Chan(1, 0),
	})
	if err := tab.Validate(top, g); err == nil {
		t.Error("link revisit accepted")
	}
}

func TestTableAccessors(t *testing.T) {
	_, _, tab := ringSetup(t)
	if tab.Route(99) != nil || tab.Route(-1) != nil {
		t.Error("out-of-range Route not nil")
	}
	if tab.MaxLen() != 3 {
		t.Errorf("MaxLen = %d, want 3", tab.MaxLen())
	}
	if got := tab.AvgLen(); got != 2.25 {
		t.Errorf("AvgLen = %f, want 2.25", got)
	}
	if got := len(tab.Routes()); got != 4 {
		t.Errorf("Routes count = %d", got)
	}
	// Set should grow the table.
	tab.Set(10, nil)
	if tab.NumFlows() != 11 {
		t.Errorf("NumFlows after grow = %d", tab.NumFlows())
	}
}

func TestChannelUsers(t *testing.T) {
	_, _, tab := ringSetup(t)
	users := tab.ChannelUsers()
	l1 := topology.Chan(0, 0)
	got := users[l1]
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("users of L1 = %v, want [0 2 3]", got)
	}
}

func TestLinkLoads(t *testing.T) {
	_, g, tab := ringSetup(t)
	loads := tab.LinkLoads(g)
	if loads[0] != 300 { // flows 0, 2, 3 each 100 MB/s over L1
		t.Errorf("load on L1 = %f, want 300", loads[0])
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, _, tab := ringSetup(t)
	c := tab.Clone()
	c.Route(0).Channels[0] = topology.Chan(3, 0)
	if tab.Route(0).Channels[0] != topology.Chan(0, 0) {
		t.Error("clone shares channel storage")
	}
}

func TestRouteString(t *testing.T) {
	top, _, tab := ringSetup(t)
	if got := tab.Route(0).String(top); got != "L1 → L2 → L3" {
		t.Errorf("String = %q", got)
	}
	empty := &Route{FlowID: 9}
	if got := empty.String(top); got != "(local)" {
		t.Errorf("empty String = %q", got)
	}
}

func TestShortestPathsOnRing(t *testing.T) {
	top, g, _ := ringSetup(t)
	tab, err := ShortestPaths(top, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(top, g); err != nil {
		t.Errorf("computed routes invalid: %v", err)
	}
	// On a unidirectional ring there is exactly one path per pair, so the
	// routes must match the paper's.
	if got := tab.Route(0).Len(); got != 3 {
		t.Errorf("flow 0 route length = %d, want 3", got)
	}
	if got := tab.Route(1).Len(); got != 2 {
		t.Errorf("flow 1 route length = %d, want 2", got)
	}
}

func TestShortestPathsLocalFlow(t *testing.T) {
	top := topology.New("t")
	sw := top.AddSwitch("")
	top.AddSwitch("")
	top.AttachCore(0, sw)
	top.AttachCore(1, sw)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 10)
	tab, err := ShortestPaths(top, g)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Route(0).Len() != 0 {
		t.Error("same-switch flow got a non-empty route")
	}
	if err := tab.Validate(top, g); err != nil {
		t.Error(err)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	top := topology.New("t")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	top.MustAddLink(a, b) // no way back
	top.AttachCore(0, b)
	top.AttachCore(1, a)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 10)
	if _, err := ShortestPaths(top, g); err == nil {
		t.Error("unroutable flow accepted")
	}
}

func TestShortestPathsUnattachedCore(t *testing.T) {
	top := topology.New("t")
	top.AddSwitch("")
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 10)
	if _, err := ShortestPaths(top, g); err == nil {
		t.Error("unattached core accepted")
	}
}

func TestShortestPathsLoadBalances(t *testing.T) {
	// Two equal-length parallel paths a→{b,c}→d; two heavy flows should
	// not both take the same middle switch.
	top := topology.New("t")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	c := top.AddSwitch("")
	d := top.AddSwitch("")
	top.MustAddLink(a, b)
	top.MustAddLink(b, d)
	top.MustAddLink(a, c)
	top.MustAddLink(c, d)
	top.AttachCore(0, a)
	top.AttachCore(1, d)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 100)
	g.MustAddFlow(0, 1, 100)
	tab, err := ShortestPaths(top, g)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Route(0).Channels[0].Link
	second := tab.Route(1).Channels[0].Link
	if first == second {
		t.Errorf("both flows routed over link %d; expected load balancing", first)
	}
}

func TestShortestPathsPrefersCheapDetour(t *testing.T) {
	top := topology.New("t")
	for i := 0; i < 4; i++ {
		top.AddSwitch("")
	}
	direct := top.MustAddLink(0, 1) // expensive direct hop
	top.MustAddLink(0, 2)
	top.MustAddLink(2, 3)
	top.MustAddLink(3, 1)
	top.AttachCore(0, 0)
	top.AttachCore(1, 1)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 10)
	base := make([]float64, top.NumLinks())
	base[direct] = 10
	tab, err := ShortestPathsWeighted(top, g, base)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Route(0).Len(); got != 3 {
		t.Fatalf("route = %v, want the 3-hop detour", tab.Route(0).Channels)
	}
}

func TestRouterUnreachableReturnsNil(t *testing.T) {
	top := topology.New("t")
	for i := 0; i < 3; i++ {
		top.AddSwitch("")
	}
	top.MustAddLink(0, 1)
	if p := newRouter(top, nil, 1).path(0, 2); p != nil {
		t.Errorf("path to unreachable switch = %v, want nil", p)
	}
}

func TestShortestPathsDeterministic(t *testing.T) {
	top := topology.New("t")
	g := traffic.RandomKOut("r", 8, 2, 7)
	for i := 0; i < 4; i++ {
		top.AddSwitch("")
	}
	for i := 0; i < 8; i++ {
		top.AttachCore(i, topology.SwitchID(i%4))
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				top.MustAddLink(topology.SwitchID(i), topology.SwitchID(j))
			}
		}
	}
	t1, err := ShortestPaths(top, g)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ShortestPaths(top, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumFlows(); i++ {
		r1, r2 := t1.Route(i), t2.Route(i)
		if r1.Len() != r2.Len() {
			t.Fatalf("flow %d nondeterministic length", i)
		}
		for h := range r1.Channels {
			if r1.Channels[h] != r2.Channels[h] {
				t.Fatalf("flow %d hop %d differs", i, h)
			}
		}
	}
}
