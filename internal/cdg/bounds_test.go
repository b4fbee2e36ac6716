package cdg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// linkRing returns an n-switch unidirectional ring: link i runs from
// switch i to switch i+1, so channel (i, 0) is the i-th CDG vertex. The
// CDG does not check that consecutive hops are adjacent, so the bound
// tests below wire dependencies between arbitrary links.
func linkRing(n int) *topology.Topology {
	top := topology.New("ring")
	for i := 0; i < n; i++ {
		top.AddSwitch("")
	}
	for i := 0; i < n; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%n))
	}
	return top
}

// vc0 lists VC 0 of each link.
func vc0(links ...int) []topology.Channel {
	out := make([]topology.Channel, len(links))
	for i, l := range links {
		out[i] = topology.Chan(topology.LinkID(l), 0)
	}
	return out
}

// checkSmallestCycle requires the incremental graph's smallest cycle to
// equal the one a from-scratch Build picks.
func checkSmallestCycle(t *testing.T, step string, m *Incremental, top *topology.Topology, tab *route.Table) {
	t.Helper()
	full, err := Build(top, tab)
	if err != nil {
		t.Fatalf("%s: Build: %v", step, err)
	}
	if got, want := m.SmallestCycle(), full.SmallestCycle(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SmallestCycle = %v, Build picks %v", step, got, want)
	}
}

// reroute applies one reroute to both the incremental graph and the table.
func reroute(t *testing.T, m *Incremental, tab *route.Table, flow int, to []topology.Channel) {
	t.Helper()
	var old []topology.Channel
	if r := tab.Route(flow); r != nil {
		old = r.Channels
	}
	if err := m.ApplyReroute(Reroute{FlowID: flow, Old: old, New: to}); err != nil {
		t.Fatal(err)
	}
	tab.Set(flow, to)
}

// boundsDesign is two 4-cycles sharing L3: L0→L1→L2→L3→L0 and
// L3→L4→L5→L6→L3. The first member, L0, finds a 4-cycle, so every other
// member ends with bound 4.
func boundsDesign() (*topology.Topology, *route.Table) {
	top := linkRing(7)
	tab := route.NewTable(5)
	tab.Set(0, vc0(0, 1, 2))
	tab.Set(1, vc0(2, 3, 0))
	tab.Set(2, vc0(3, 4, 5))
	tab.Set(3, vc0(5, 6, 3))
	tab.Set(4, vc0(1, 2)) // shares L1→L2 with flow 0; the arbitrary reroute moves it
	return top, tab
}

// TestArbitraryRerouteDropsBounds pins the reset in ApplyReroute. A relabel
// break moves L6 onto a duplicate VC, which inherits L6's bound of 4. A
// same-length reroute that is not a relabel then closes the 3-cycle
// L4→L5→L6'→L4 through members whose bounds say 4: unless the bounds are
// dropped, the scan skips them and reports a 4-cycle.
func TestArbitraryRerouteDropsBounds(t *testing.T) {
	top, tab := boundsDesign()
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	checkSmallestCycle(t, "initial", m, top, tab)

	vc, err := top.AddVC(6)
	if err != nil {
		t.Fatal(err)
	}
	dup := topology.Chan(6, vc)
	reroute(t, m, tab, 3, []topology.Channel{topology.Chan(5, 0), dup, topology.Chan(3, 0)})
	if m.lb[m.id[dup]] != 4 {
		t.Fatalf("duplicate of L6 has bound %d, want the inherited 4", m.lb[m.id[dup]])
	}
	checkSmallestCycle(t, "after relabel", m, top, tab)

	reroute(t, m, tab, 4, []topology.Channel{dup, topology.Chan(4, 0)})
	checkSmallestCycle(t, "after arbitrary reroute", m, top, tab)
	if got := len(m.SmallestCycle()); got != 3 {
		t.Fatalf("smallest cycle has length %d, want 3", got)
	}
}

// TestRestoreDropsBounds pins the reset in Restore. The snapshot holds a
// 3-cycle L4→L5→L6→L4 and no cached analysis. A relabel break then moves
// L6→L4 onto a duplicate, and the next search raises the bounds of L4, L5
// and L6 to 4. Restoring brings the 3-cycle back: unless the bounds are
// dropped, the scan skips all three members.
func TestRestoreDropsBounds(t *testing.T) {
	top, tab := boundsDesign()
	tab.Set(4, vc0(6, 4))
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	snapTab := tab.Clone()
	checkSmallestCycle(t, "initial", m, top, tab)

	vc, err := top.AddVC(6)
	if err != nil {
		t.Fatal(err)
	}
	reroute(t, m, tab, 4, []topology.Channel{topology.Chan(6, vc), topology.Chan(4, 0)})
	checkSmallestCycle(t, "after relabel", m, top, tab)
	if got := m.lb[m.id[topology.Chan(4, 0)]]; got != 4 {
		t.Fatalf("L4 has bound %d after the relabel, want 4", got)
	}

	m.Restore(snap)
	checkSmallestCycle(t, "after restore", m, top, snapTab)
	if got := len(m.SmallestCycle()); got != 3 {
		t.Fatalf("smallest cycle has length %d, want 3", got)
	}
}

// fuzzDesign builds a small random design: a bidirectional ring of 3–6
// switches plus random chords, and 3–10 flows on random walks that never
// reuse a link.
func fuzzDesign(rng *rand.Rand) (*topology.Topology, *route.Table) {
	n := 3 + rng.Intn(4)
	top := topology.New("fuzz")
	for i := 0; i < n; i++ {
		top.AddSwitch("")
	}
	for i := 0; i < n; i++ {
		top.AddBidi(topology.SwitchID(i), topology.SwitchID((i+1)%n))
	}
	for i := 0; i < n; i++ {
		top.AddLink(topology.SwitchID(rng.Intn(n)), topology.SwitchID(rng.Intn(n))) // self and duplicate links are refused
	}
	flows := 3 + rng.Intn(8)
	tab := route.NewTable(flows)
	for f := 0; f < flows; f++ {
		tab.Set(f, randomWalk(rng, top))
	}
	return top, tab
}

// randomWalk returns a path of 1–6 hops from a random switch, on random
// provisioned VCs, never reusing a link.
func randomWalk(rng *rand.Rand, top *topology.Topology) []topology.Channel {
	sw := topology.SwitchID(rng.Intn(top.NumSwitches()))
	used := make(map[topology.LinkID]bool)
	var path []topology.Channel
	for hops := 1 + rng.Intn(6); len(path) < hops; {
		var next []topology.LinkID
		for _, l := range top.OutLinks(sw) {
			if !used[l] {
				next = append(next, l)
			}
		}
		if len(next) == 0 {
			break
		}
		l := next[rng.Intn(len(next))]
		used[l] = true
		path = append(path, topology.Chan(l, rng.Intn(top.Link(l).VCs)))
		sw = top.Link(l).To
	}
	return path
}

// FuzzIncrementalSmallestCycle drives an Incremental CDG through a random
// mix of relabel breaks, arbitrary reroutes and snapshot/restore, and
// requires SmallestCycle to match a from-scratch Build after every step.
// Each step byte picks the kind of step; the seed drives the design and
// the details:
//
//	0, 1  relabel break: a hop range of one flow moves onto fresh duplicate
//	      VCs, and other flows move their hops on those channels onto the
//	      same duplicates, as a core cycle break shares them
//	2     arbitrary reroute: a new random walk, or the flow is dropped
//	3     relabel break, then, before the next search, a same-length move
//	      of one hop onto another VC of its link or onto one of the
//	      break's duplicates (a relabel only when it is the hop's own)
//	4     snapshot
//	5     restore the last snapshot
func FuzzIncrementalSmallestCycle(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 1, 0})
	f.Add(int64(2), []byte{4, 0, 1, 2, 0, 5, 0, 0})
	f.Add(int64(3), []byte{0, 3, 0, 1, 3, 0})
	f.Add(int64(4), []byte{0, 1, 4, 0, 0, 2, 5, 1, 0, 3, 0})
	f.Add(int64(5), []byte{2, 2, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, steps []byte) {
		if len(steps) > 32 {
			steps = steps[:32] // bound per-exec work
		}
		rng := rand.New(rand.NewSource(seed))
		top, tab := fuzzDesign(rng)
		m, err := BuildIncremental(top, tab)
		if err != nil {
			t.Fatal(err)
		}
		checkSmallestCycle(t, "initial", m, top, tab)
		var (
			snap    *Snapshot
			snapTab *route.Table
		)
		flows := tab.NumFlows()
		for i, b := range steps {
			flow := rng.Intn(flows)
			path := tab.Route(flow).Channels
			switch b % 6 {
			case 0, 1, 3:
				if len(path) == 0 {
					break
				}
				lo := rng.Intn(len(path))
				hi := lo + rng.Intn(len(path)-lo)
				dup := make(map[topology.Channel]topology.Channel)
				var dups []topology.Channel
				for _, ch := range path[lo : hi+1] {
					vc, err := top.AddVC(ch.Link)
					if err != nil {
						t.Fatal(err)
					}
					dup[ch] = topology.Chan(ch.Link, vc)
					dups = append(dups, dup[ch])
				}
				for g := 0; g < flows; g++ {
					if g != flow && rng.Intn(2) == 0 {
						continue
					}
					moved := append([]topology.Channel(nil), tab.Route(g).Channels...)
					for j, ch := range moved {
						if d, ok := dup[ch]; ok {
							moved[j] = d
						}
					}
					reroute(t, m, tab, g, moved)
				}
				if b%6 != 3 {
					break
				}
				g := rng.Intn(flows)
				moved := append([]topology.Channel(nil), tab.Route(g).Channels...)
				if len(moved) == 0 {
					break
				}
				j := rng.Intn(len(moved))
				to := topology.Chan(moved[j].Link, rng.Intn(top.Link(moved[j].Link).VCs))
				if rng.Intn(2) == 0 {
					to = dups[rng.Intn(len(dups))]
				}
				if !slices.Contains(moved, to) {
					moved[j] = to
					reroute(t, m, tab, g, moved)
				}
			case 2:
				var to []topology.Channel
				if rng.Intn(4) != 0 {
					to = randomWalk(rng, top)
				}
				reroute(t, m, tab, flow, to)
			case 4:
				snap, snapTab = m.Snapshot(), tab.Clone()
			case 5:
				if snap != nil {
					m.Restore(snap)
					tab = snapTab.Clone()
				}
			}
			checkSmallestCycle(t, fmt.Sprintf("step %d (kind %d)", i, b%6), m, top, tab)
		}
	})
}
