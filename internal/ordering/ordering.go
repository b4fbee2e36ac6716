// Package ordering implements the paper's comparison baseline: resource
// ordering (Dally & Towles, the paper's reference [10]). Every channel is
// assigned a totally ordered resource class and a flow may only acquire
// channels with strictly increasing classes along its route. Given fixed
// routes on an arbitrary topology this is always achievable by layering
// virtual channels; the number of layers a link must offer is the VC
// overhead that the paper's Figures 8–9 plot as the dotted line.
//
// The paper describes the textbook realization: "the number of classes
// needed for a flow depends on the length of the route", i.e. a packet
// climbs one class per hop (HopIndex below, the default). Two greedy
// variants that climb only when a static link rank fails to increase are
// provided for the ablation study; they need fewer VCs but are still far
// costlier than deadlock removal.
package ordering

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Scheme selects how resource classes are assigned along a route.
type Scheme int

const (
	// HopIndex gives hop i of every route class layer i — the paper's
	// description of the baseline ("the number of classes needed for a
	// flow depends on the length of the route"). Default.
	HopIndex Scheme = iota
	// GreedyBFS keeps a flow in its current layer while a BFS-derived
	// link rank climbs, stepping up a layer only on a rank descent.
	GreedyBFS
	// GreedyByID is GreedyBFS with the naive creation-order link rank.
	GreedyByID
)

// String names the scheme for reports.
func (s Scheme) String() string {
	switch s {
	case HopIndex:
		return "hop-index"
	case GreedyBFS:
		return "greedy-bfs"
	case GreedyByID:
		return "greedy-id"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Result reports the outcome of applying resource ordering. Topology and
// Routes are modified deep copies; inputs are untouched.
type Result struct {
	Topology *topology.Topology
	Routes   *route.Table
	// AddedVCs is the number of channels added so each link offers every
	// layer demanded by the flows crossing it — the Figures 8–9 metric.
	AddedVCs int
	// Layers is the number of VC layers used (max over links).
	Layers int
	// Classes is the number of distinct resource classes, layers × links.
	Classes int
}

// Apply makes the routed network deadlock-free with resource ordering:
// it computes a class assignment under the chosen scheme, moves every
// route onto the VC layers the assignment demands, and provisions those
// VCs. The physical path of every flow is preserved; only VC indices
// change. A route over a link the topology lacks, or one that demands a
// layer a faulted link does not offer, is invalid input.
func Apply(top *topology.Topology, tab *route.Table, scheme Scheme) (*Result, error) {
	l := newLayering(top)
	switch scheme {
	case HopIndex:
		// No rank needed: the layer is the hop position.
	case GreedyBFS, GreedyByID:
		var err error
		if l.rank, err = linkRanks(top, scheme); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("ordering: unknown scheme %v", scheme)
	}
	routes := tab.Clone()
	for _, r := range routes.Routes() {
		if len(r.Channels) == 0 {
			continue
		}
		channels := make([]topology.Channel, len(r.Channels))
		if err := l.path(r.FlowID, r.Channels, channels); err != nil {
			return nil, err
		}
		routes.Set(r.FlowID, channels)
	}
	// A demand a faulted link cannot meet fails here, as in the count,
	// before any VC is added.
	if _, err := l.added(); err != nil {
		return nil, err
	}

	// Provision the layers each link must offer.
	res := &Result{Topology: top.Clone(), Routes: routes, Layers: l.layers}
	for id, d := range l.demand {
		for res.Topology.Link(topology.LinkID(id)).VCs <= d {
			if _, err := res.Topology.AddVC(topology.LinkID(id)); err != nil {
				return nil, err
			}
			res.AddedVCs++
		}
	}
	res.Classes = res.Layers * res.Topology.NumLinks()
	return res, nil
}

// AddedVCs returns Apply(top, tab, HopIndex).AddedVCs, with the same
// errors, without building the ordered design: the Figures 8–9 count on
// its own.
func AddedVCs(top *topology.Topology, tab *route.Table) (int, error) {
	l := newLayering(top)
	for f := 0; f < tab.NumFlows(); f++ {
		if r := tab.Route(f); r != nil {
			if err := l.path(f, r.Channels, nil); err != nil {
				return 0, err
			}
		}
	}
	return l.added()
}

// AddedVCsSet is AddedVCs over every candidate path of a route set: the
// baseline's count, and its errors, on the set's flattened pseudo-flow
// table, without flattening it.
func AddedVCsSet(top *topology.Topology, set *route.RouteSet) (int, error) {
	l := newLayering(top)
	pseudo := 0
	for f := 0; f < set.NumFlows(); f++ {
		for _, p := range route.PathsOf(set, f) {
			if err := l.path(pseudo, p, nil); err != nil {
				return 0, err
			}
			pseudo++
		}
	}
	return l.added()
}

// layering assigns resource-class layers hop by hop and accumulates each
// link's layer demand. Apply provisions its design from the demand and
// AddedVCs counts from it, so the two cannot drift apart.
type layering struct {
	top *topology.Topology
	// rank is the greedy schemes' per-link rank, indexed by LinkID; nil
	// under HopIndex, where hop i of every path is layer i.
	rank []int
	// demand is the highest layer any path crosses each link on, indexed
	// by LinkID (0 where no path crosses it).
	demand []int
	// layers is the number of layers used: one more than the highest.
	layers int
}

func newLayering(top *topology.Topology) *layering {
	return &layering{top: top, demand: make([]int, top.NumLinks())}
}

// path assigns each hop of a flow's path its layer, records the demand,
// and writes the layered channels to out when out is non-nil. It rejects
// a link the topology lacks.
func (l *layering) path(flowID int, path, out []topology.Channel) error {
	layer, prevRank := 0, -1
	for i, ch := range path {
		if !l.top.ValidLink(ch.Link) {
			return fmt.Errorf("ordering: flow %d uses unknown link %d: %w", flowID, ch.Link, nocerr.ErrInvalidInput)
		}
		if l.rank == nil {
			layer = i
		} else {
			if l.rank[ch.Link] <= prevRank {
				layer++
			}
			prevRank = l.rank[ch.Link]
		}
		if out != nil {
			out[i] = topology.Chan(ch.Link, layer)
		}
		l.demand[ch.Link] = max(l.demand[ch.Link], layer)
	}
	if len(path) > 0 {
		l.layers = max(l.layers, layer+1)
	}
	return nil
}

// added returns how many VCs make every link offer the layers demanded of
// it, Σ max(0, demand+1−VCs) over links. A faulted link cannot grow, so a
// demand beyond its VCs is an error.
func (l *layering) added() (int, error) {
	n := 0
	for id, d := range l.demand {
		need := d + 1 - l.top.Link(topology.LinkID(id)).VCs
		if need <= 0 {
			continue
		}
		if l.top.Faulted(topology.LinkID(id)) {
			return 0, fmt.Errorf("ordering: layer %d demanded on faulted link %d: %w", d, id, nocerr.ErrInvalidInput)
		}
		n += need
	}
	return n, nil
}

// UniformTopology returns the hardware a resource-ordered design is
// built from in practice: since the router microarchitecture implements
// the class scheme, every link port provides all Layers VC layers, not
// just the layers the routed flows happen to touch. The paper's area and
// power comparisons (Figure 10 and the 66% claim) reflect this uniform
// provisioning; its VC counts (Figures 8–9) count only the layers
// actually demanded per link, which is what AddedVCs reports.
func (r *Result) UniformTopology() *topology.Topology {
	t := r.Topology.Clone()
	if r.Layers <= 1 {
		return t
	}
	for _, l := range t.Links() {
		for t.Link(l.ID).VCs < r.Layers {
			if _, err := t.AddVC(l.ID); err != nil {
				// Clone of a valid topology: AddVC can only fail on a bad
				// link ID, which cannot happen while iterating Links.
				panic(err)
			}
		}
	}
	return t
}

// linkRanks returns a total order over physical links for the greedy
// schemes, indexed by LinkID.
func linkRanks(top *topology.Topology, scheme Scheme) ([]int, error) {
	ranks := make([]int, top.NumLinks())
	switch scheme {
	case GreedyByID:
		for i := range ranks {
			ranks[i] = i
		}
	case GreedyBFS:
		// Rank links in BFS discovery order over switches starting from
		// switch 0 (joining unreached components as they appear). Links
		// leaving earlier-discovered switches get lower ranks, so routes
		// that fan outward climb monotonically.
		seen := make([]bool, top.NumSwitches())
		var order []int
		for start := 0; start < top.NumSwitches(); start++ {
			if seen[start] {
				continue
			}
			seen[start] = true
			queue := []int{start}
			for qi := 0; qi < len(queue); qi++ {
				sw := queue[qi]
				order = append(order, sw)
				for _, lid := range top.OutLinks(topology.SwitchID(sw)) {
					to := int(top.Link(lid).To)
					if !seen[to] {
						seen[to] = true
						queue = append(queue, to)
					}
				}
			}
		}
		next := 0
		for _, sw := range order {
			for _, lid := range top.OutLinks(topology.SwitchID(sw)) {
				ranks[lid] = next
				next++
			}
		}
		if next != top.NumLinks() {
			return nil, fmt.Errorf("ordering: ranked %d of %d links", next, top.NumLinks())
		}
	default:
		return nil, fmt.Errorf("ordering: scheme %v has no link ranks", scheme)
	}
	return ranks, nil
}
