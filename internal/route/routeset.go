package route

import (
	"fmt"
	"sort"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// RouteSet holds, for every flow, an ordered list of candidate paths —
// the representation adaptive routing functions (turn models,
// minimal-adaptive, fault-tolerant reroute) produce. The deadlock-removal
// algorithm applies to a RouteSet unchanged through Flatten: every
// (flow, path) alternative becomes one pseudo-flow of an ordinary Table,
// so the channel dependency graph built from that table is exactly the
// union of the set's permitted channel transitions; a set with one path
// per flow flattens to a table with identical flow IDs, which is what
// pins the single-path case byte-identical to the classic pipeline.
//
// Path order is significant and deterministic: generators append in a
// fixed order, and Flatten/Unflatten preserve it.
type RouteSet struct {
	paths [][][]topology.Channel
}

// NewRouteSet returns a set sized for n flows, all initially empty.
func NewRouteSet(n int) *RouteSet {
	return &RouteSet{paths: make([][][]topology.Channel, n)}
}

// NumFlows returns the number of flow slots.
func (s *RouteSet) NumFlows() int { return len(s.paths) }

// Add appends one candidate path for a flow, growing the set if needed.
// Duplicate paths (identical channel sequences) are ignored.
func (s *RouteSet) Add(flowID int, channels []topology.Channel) {
	for len(s.paths) <= flowID {
		s.paths = append(s.paths, nil)
	}
	for _, p := range s.paths[flowID] {
		if channelsEqual(p, channels) {
			return
		}
	}
	s.paths[flowID] = append(s.paths[flowID], append([]topology.Channel(nil), channels...))
}

func channelsEqual(a, b []topology.Channel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumPaths returns the number of candidate paths for a flow (0 if unset
// or out of range).
func (s *RouteSet) NumPaths(flowID int) int {
	if flowID < 0 || flowID >= len(s.paths) {
		return 0
	}
	return len(s.paths[flowID])
}

// TotalPaths returns the number of candidate paths across all flows.
func (s *RouteSet) TotalPaths() int {
	n := 0
	for _, ps := range s.paths {
		n += len(ps)
	}
	return n
}

// Paths returns deep copies of a flow's candidate paths in order.
func (s *RouteSet) Paths(flowID int) [][]topology.Channel {
	if flowID < 0 || flowID >= len(s.paths) {
		return nil
	}
	out := make([][]topology.Channel, len(s.paths[flowID]))
	for i, p := range s.paths[flowID] {
		out[i] = append([]topology.Channel(nil), p...)
	}
	return out
}

// PathsOf is the read-only view of a flow's candidate paths: Paths
// without the copy. The returned slices alias the set; a caller reads
// them and must neither modify nor keep them past the set's next change.
// It is a function rather than a method so that it stays out of the
// public RouteSet API.
func PathsOf(s *RouteSet, flowID int) [][]topology.Channel {
	if flowID < 0 || flowID >= len(s.paths) {
		return nil
	}
	return s.paths[flowID]
}

// Clone returns a deep copy of the set. The copied path lists share one
// backing array and the paths another, each capped at its length, so
// appending to one flow's list or to one path never writes into its
// neighbour's; an empty path stays nil.
func (s *RouteSet) Clone() *RouteSet {
	nPaths, hops := s.size()
	c := NewRouteSet(len(s.paths))
	lists := make([][]topology.Channel, 0, nPaths)
	backing := make([]topology.Channel, 0, hops)
	for f, ps := range s.paths {
		if len(ps) == 0 {
			continue
		}
		start := len(lists)
		for _, p := range ps {
			lists = append(lists, carve(&backing, p))
		}
		c.paths[f] = lists[start:len(lists):len(lists)]
	}
	return c
}

// size returns the set's candidate-path and hop counts.
func (s *RouteSet) size() (paths, hops int) {
	for _, ps := range s.paths {
		paths += len(ps)
		for _, p := range ps {
			hops += len(p)
		}
	}
	return paths, hops
}

// MaxLen returns the longest candidate path length in hops.
func (s *RouteSet) MaxLen() int {
	m := 0
	for _, ps := range s.paths {
		for _, p := range ps {
			if len(p) > m {
				m = len(p)
			}
		}
	}
	return m
}

// FromTable lifts a single-path route table into a RouteSet with exactly
// one candidate per flow (unset table slots stay empty).
func FromTable(tab *Table) *RouteSet {
	s := NewRouteSet(tab.NumFlows())
	for _, r := range tab.Routes() {
		s.Add(r.FlowID, r.Channels)
	}
	return s
}

// Single returns the set as a plain Table when every non-empty flow has
// exactly one candidate path, and reports whether that was the case.
func (s *RouteSet) Single() (*Table, bool) {
	tab := NewTable(len(s.paths))
	for f, ps := range s.paths {
		if len(ps) > 1 {
			return nil, false
		}
		if len(ps) == 1 {
			tab.Set(f, append([]topology.Channel(nil), ps[0]...))
		}
	}
	return tab, true
}

// Primary returns the first candidate path of every flow as a Table — a
// deterministic single-path projection of the set.
func (s *RouteSet) Primary() *Table {
	tab := NewTable(len(s.paths))
	for f, ps := range s.paths {
		if len(ps) > 0 {
			tab.Set(f, append([]topology.Channel(nil), ps[0]...))
		}
	}
	return tab
}

// AppendPath appends one candidate path for a flow without Add's
// duplicate filtering, growing the set if needed. It is the rebuild half
// of a flattened-table round trip: online reconfiguration reconstructs a
// set pseudo-flow by pseudo-flow from a rewritten table, and two
// candidates that the removal replay rewrote onto the same channel
// sequence must both survive so pseudo-flow identity stays aligned with
// the live CDG.
func (s *RouteSet) AppendPath(flowID int, channels []topology.Channel) {
	for len(s.paths) <= flowID {
		s.paths = append(s.paths, nil)
	}
	s.paths[flowID] = append(s.paths[flowID], append([]topology.Channel(nil), channels...))
}

// FlowsThrough returns, in ascending order, the IDs of every flow with
// at least one candidate path crossing the given physical link on any
// virtual channel. A fresh fault on that link displaces exactly these
// flows — they are the reroute set of an online reconfiguration.
func (s *RouteSet) FlowsThrough(link topology.LinkID) []int {
	var out []int
	for f, ps := range s.paths {
		for _, p := range ps {
			hit := false
			for _, c := range p {
				if c.Link == link {
					hit = true
					break
				}
			}
			if hit {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// PathRef identifies one candidate path: flow FlowID's Index-th path.
type PathRef struct {
	FlowID int
	Index  int
}

// Flatten expands the set into a Table of pseudo-flows, one per candidate
// path, in (flow, path-index) order, together with the pseudo-flow →
// path mapping. The channel dependency graph of the flattened table is
// the union of the set's permitted channel transitions, so the removal
// algorithm runs on it unchanged. A set with exactly one path per flow
// flattens to a table whose pseudo-flow IDs equal the real flow IDs.
//
// The pseudo-flows' routes share one backing array and their channel
// lists another, each list capped at its length, as in Table.Clone.
func (s *RouteSet) Flatten() (*Table, []PathRef) {
	nPaths, hops := s.size()
	tab := NewTable(nPaths)
	if nPaths == 0 {
		return tab, nil
	}
	refs := make([]PathRef, 0, nPaths)
	routes := make([]Route, nPaths)
	backing := make([]topology.Channel, 0, hops)
	for f, ps := range s.paths {
		for i, p := range ps {
			pseudo := len(refs)
			refs = append(refs, PathRef{FlowID: f, Index: i})
			routes[pseudo] = Route{FlowID: pseudo, Channels: carve(&backing, p)}
			tab.routes[pseudo] = &routes[pseudo]
		}
	}
	return tab, refs
}

// RealFlows maps pseudo-flow IDs of a flattened table through refs to
// deduplicated ascending real flow IDs. An ID outside refs passes
// through unchanged.
func RealFlows(pseudo []int, refs []PathRef) []int {
	seen := make(map[int]bool, len(pseudo))
	out := make([]int, 0, len(pseudo))
	for _, p := range pseudo {
		f := p
		if p >= 0 && p < len(refs) {
			f = refs[p].FlowID
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}

// Unflatten rebuilds a RouteSet from a (possibly rewritten) flattened
// table and the mapping Flatten returned. Path identity and order are
// preserved; only the channel sequences come from the table.
//
// Unflatten consumes the table: the set adopts the routes' channel
// slices instead of copying them, so the caller must neither use nor
// modify tab afterwards.
func Unflatten(tab *Table, refs []PathRef, numFlows int) (*RouteSet, error) {
	s := NewRouteSet(numFlows)
	for pseudo, ref := range refs {
		r := tab.Route(pseudo)
		if r == nil {
			return nil, fmt.Errorf("route: pseudo-flow %d (flow %d path %d) missing from flattened table: %w",
				pseudo, ref.FlowID, ref.Index, nocerr.ErrInvalidInput)
		}
		for len(s.paths) <= ref.FlowID {
			s.paths = append(s.paths, nil)
		}
		if len(s.paths[ref.FlowID]) != ref.Index {
			return nil, fmt.Errorf("route: path refs out of order at pseudo-flow %d: %w", pseudo, nocerr.ErrInvalidInput)
		}
		p := r.Channels
		if len(p) == 0 {
			p = nil
		}
		s.paths[ref.FlowID] = append(s.paths[ref.FlowID], p)
	}
	return s, nil
}

// Validate checks the set against a topology and traffic graph: every
// flow has at least one path, every path is a contiguous switch walk from
// the flow's source switch to its destination switch over provisioned,
// non-faulted channels with no repeated physical link, no path visits the
// destination switch before its final hop, and no two transitions leave
// the same channel toward the same channel twice (which Add's dedup
// already guarantees at path granularity).
func (s *RouteSet) Validate(top *topology.Topology, g *traffic.Graph) error {
	for _, f := range g.Flows() {
		if f.ID >= len(s.paths) || len(s.paths[f.ID]) == 0 {
			return fmt.Errorf("route: flow %d has no candidate path: %w", f.ID, nocerr.ErrInvalidInput)
		}
		ps := s.paths[f.ID]
		srcSw, ok := top.SwitchOf(int(f.Src))
		if !ok {
			return fmt.Errorf("route: core %d not attached to any switch: %w", f.Src, nocerr.ErrInvalidInput)
		}
		dstSw, ok := top.SwitchOf(int(f.Dst))
		if !ok {
			return fmt.Errorf("route: core %d not attached to any switch: %w", f.Dst, nocerr.ErrInvalidInput)
		}
		for pi, p := range ps {
			if len(p) == 0 {
				if srcSw != dstSw {
					return fmt.Errorf("route: flow %d path %d empty but cores on different switches: %w", f.ID, pi, nocerr.ErrInvalidInput)
				}
				continue
			}
			cur := srcSw
			seen := make(map[topology.LinkID]bool, len(p))
			for i, c := range p {
				if !top.ValidChannel(c) {
					return fmt.Errorf("route: flow %d path %d hop %d uses invalid channel %v: %w", f.ID, pi, i, c, nocerr.ErrInvalidInput)
				}
				if top.FaultedChannel(c) {
					return fmt.Errorf("route: flow %d path %d hop %d crosses faulted link %d: %w", f.ID, pi, i, c.Link, nocerr.ErrInvalidInput)
				}
				l := top.Link(c.Link)
				if l.From != cur {
					return fmt.Errorf("route: flow %d path %d hop %d starts at switch %d, expected %d: %w", f.ID, pi, i, l.From, cur, nocerr.ErrInvalidInput)
				}
				if seen[c.Link] {
					return fmt.Errorf("route: flow %d path %d revisits physical link %d: %w", f.ID, pi, c.Link, nocerr.ErrInvalidInput)
				}
				seen[c.Link] = true
				cur = l.To
				if cur == dstSw && i != len(p)-1 {
					return fmt.Errorf("route: flow %d path %d passes through destination switch %d mid-route: %w", f.ID, pi, dstSw, nocerr.ErrInvalidInput)
				}
			}
			if cur != dstSw {
				return fmt.Errorf("route: flow %d path %d ends at switch %d, want %d: %w", f.ID, pi, cur, dstSw, nocerr.ErrInvalidInput)
			}
		}
	}
	return nil
}
