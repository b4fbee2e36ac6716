package cdg

import (
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// tableWalk walks a table's routes in flow-ID order.
func tableWalk(tab *route.Table) Paths {
	return func(visit func(int, []topology.Channel)) {
		for _, r := range tab.Routes() {
			visit(r.FlowID, r.Channels)
		}
	}
}

// setWalk walks a route set's candidate paths in pseudo-flow order.
func setWalk(set *route.RouteSet) Paths {
	return func(visit func(int, []topology.Channel)) {
		pseudo := 0
		for f := 0; f < set.NumFlows(); f++ {
			for _, p := range route.PathsOf(set, f) {
				visit(pseudo, p)
				pseudo++
			}
		}
	}
}

// errText is an error's text, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestProveAcyclicCases pins the pass's answer on the shapes the break
// loop treats specially: its verdict is Build's, and so is its error.
func TestProveAcyclicCases(t *testing.T) {
	top, cyclic := paperExample(t)
	if _, err := top.AddVC(1); err != nil {
		t.Fatal(err)
	}
	ch := topology.Chan
	cases := []struct {
		name   string
		routes [][]topology.Channel
		want   bool
	}{
		{"empty table", nil, true},
		{"local flows only", [][]topology.Channel{nil, {}}, true},
		{"single hops", [][]topology.Channel{{ch(0, 0)}, {ch(1, 1)}, {ch(3, 0)}}, true},
		{"chain", [][]topology.Channel{{ch(0, 0), ch(1, 0), ch(2, 0)}, {ch(1, 1), ch(2, 0), ch(3, 0)}}, true},
		{"shared edges", [][]topology.Channel{{ch(0, 0), ch(1, 0)}, {ch(0, 0), ch(1, 0)}}, true},
		{"self-dependency", [][]topology.Channel{{ch(0, 0), ch(0, 0)}}, false},
		{"repeated channel", [][]topology.Channel{{ch(0, 0), ch(1, 0), ch(0, 0)}}, false},
		{"2-cycle", [][]topology.Channel{{ch(0, 0), ch(1, 0)}, {ch(1, 0), ch(0, 0)}}, false},
		{"unknown link", [][]topology.Channel{{ch(0, 0)}, {ch(4, 0)}}, false},
		{"negative link", [][]topology.Channel{{ch(-1, 0)}}, false},
		{"missing VC", [][]topology.Channel{{ch(0, 0), ch(2, 1)}}, false},
		{"negative VC", [][]topology.Channel{{ch(0, -1)}}, false},
		{"bad hop after a cycle", [][]topology.Channel{{ch(0, 0), ch(1, 0)}, {ch(1, 0), ch(0, 0)}, {ch(2, 0), ch(3, 1)}}, false},
		{"two bad hops", [][]topology.Channel{{ch(0, 0), ch(2, 1), ch(5, 0)}, {ch(6, 0)}}, false},
	}
	for _, c := range cases {
		tab := route.NewTable(len(c.routes))
		for f, r := range c.routes {
			tab.Set(f, r)
		}
		got, err := ProveAcyclic(top, tableWalk(tab))
		if got != c.want {
			t.Errorf("%s: ProveAcyclic = %v, want %v", c.name, got, c.want)
		}
		g, buildErr := Build(top, tab)
		if want := buildErr == nil && g.Acyclic(); want != c.want {
			t.Errorf("%s: Build acyclic = %v, case says %v", c.name, want, c.want)
		}
		if errText(err) != errText(buildErr) {
			t.Errorf("%s: ProveAcyclic error %q, Build's %q", c.name, errText(err), errText(buildErr))
		}
	}
	if ok, err := ProveAcyclic(top, tableWalk(cyclic)); ok || err != nil {
		t.Errorf("Figure 2's cyclic CDG: ProveAcyclic = %v, %v; want false, nil", ok, err)
	}
	// A faulted link is not rejected: Build does not reject it either.
	if err := top.Fault(0); err != nil {
		t.Fatal(err)
	}
	tab := route.NewTable(1)
	tab.Set(0, []topology.Channel{ch(0, 0), ch(1, 0)})
	if ok, err := ProveAcyclic(top, tableWalk(tab)); !ok || err != nil {
		t.Errorf("route over a faulted link: ProveAcyclic = %v, %v; want true, nil", ok, err)
	}
}

// fuzzPassDesign decodes fuzz bytes into a small topology and route
// set. The first byte picks the switch count. Each following nibble
// describes one ordered switch pair, in a fixed order: bit 0 adds a
// link, bit 1 an extra VC on it, bit 2 faults it. The rest is paths:
// 0xFF ends a flow, 0xFE ends a path (an empty one included), and any
// other byte b is a channel on link b%(links+1), one past the last
// naming an unknown link, and VC b/64, which the link may lack.
func fuzzPassDesign(data []byte) (*topology.Topology, *route.RouteSet) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	top := topology.New("fuzz")
	n := 2 + int(next()%4)
	for i := 0; i < n; i++ {
		top.AddSwitch("")
	}
	var bits byte
	for a, k := 0, 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			if k%2 == 0 {
				bits = next()
			}
			shift := uint(4 * (k % 2))
			k++
			if bits>>shift&1 == 0 {
				continue
			}
			id := top.MustAddLink(topology.SwitchID(a), topology.SwitchID(b))
			if bits>>(shift+1)&1 == 1 {
				top.AddVC(id)
			}
			if bits>>(shift+2)&1 == 1 {
				top.Fault(id)
			}
		}
	}
	set := route.NewRouteSet(0)
	flow, path := 0, []topology.Channel{}
	flush := func() {
		if len(path) > 0 {
			set.AppendPath(flow, path)
			path = []topology.Channel{}
		}
	}
	for _, b := range data {
		switch b {
		case 0xFF:
			flush()
			flow++
		case 0xFE:
			set.AppendPath(flow, path)
			path = []topology.Channel{}
		default:
			link := int(b) % (top.NumLinks() + 1)
			path = append(path, topology.Chan(topology.LinkID(link), int(b)/64))
		}
	}
	flush()
	return top, set
}

// FuzzAcyclicPass holds the pass to Build on small random designs,
// unprovisioned and repeated channels included: it proves a set acyclic
// exactly when BuildSet succeeds and reports the union CDG acyclic, and
// fails exactly when BuildSet fails, with its error text.
func FuzzAcyclicPass(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0x11, 0x11, 0x11})
	f.Add([]byte{0, 0x11, 0x00, 0x01, 0xFF, 0x01, 0x00})          // 2-cycle
	f.Add([]byte{0, 0x11, 0x00, 0x00})                            // self-dependency
	f.Add([]byte{1, 0x33, 0x33, 0x33, 0x00, 0x01, 0x42, 0xFE, 3}) // extra VCs, two paths
	f.Add([]byte{0, 0x01, 0x01, 0x41})                            // unknown link, missing VC
	f.Add([]byte{2, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0, 1, 2, 0xFF, 2, 3, 0xFF, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		top, set := fuzzPassDesign(data)
		g, _, buildErr := BuildSet(top, set)
		want := buildErr == nil && g.Acyclic()
		got, err := ProveAcyclic(top, setWalk(set))
		if got != want {
			t.Fatalf("ProveAcyclic = %v, BuildSet acyclic = %v (err %v)", got, want, buildErr)
		}
		if errText(err) != errText(buildErr) {
			t.Fatalf("ProveAcyclic error %q, BuildSet's %q", errText(err), errText(buildErr))
		}
	})
}
