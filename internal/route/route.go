// Package route implements the paper's Definition 3: a Route is the
// ordered set of channels (physical link + virtual channel) a flow
// traverses from source to destination. It provides a route table keyed
// by flow ID, a deterministic load-aware shortest-path router used by
// topology synthesis, and validation that ties routes, topology and
// traffic together.
package route

import (
	"fmt"
	"strings"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Route is an ordered channel list for one flow. An empty Channels slice
// is legal and means source and destination cores share a switch, so the
// flow never enters the switch-to-switch network.
type Route struct {
	FlowID   int
	Channels []topology.Channel
}

// Clone returns a deep copy of the route.
func (r *Route) Clone() *Route {
	return &Route{FlowID: r.FlowID, Channels: append([]topology.Channel(nil), r.Channels...)}
}

// Len returns the number of channels (hops) on the route.
func (r *Route) Len() int { return len(r.Channels) }

// String renders the route in the paper's notation, e.g. "L1 → L2' → L3".
func (r *Route) String(t *topology.Topology) string {
	if len(r.Channels) == 0 {
		return "(local)"
	}
	parts := make([]string, len(r.Channels))
	for i, c := range r.Channels {
		parts[i] = t.ChannelName(c)
	}
	return strings.Join(parts, " → ")
}

// Table holds one route per flow, indexed by flow ID.
type Table struct {
	routes []*Route
}

// NewTable returns a table sized for n flows, all routes initially unset.
func NewTable(n int) *Table {
	return &Table{routes: make([]*Route, n)}
}

// NumFlows returns the table capacity (number of flow slots).
func (t *Table) NumFlows() int { return len(t.routes) }

// Route returns the route for a flow, or nil if unset or out of range.
func (t *Table) Route(flowID int) *Route {
	if flowID < 0 || flowID >= len(t.routes) {
		return nil
	}
	return t.routes[flowID]
}

// Set installs a route for flow flowID, growing the table if needed.
func (t *Table) Set(flowID int, channels []topology.Channel) {
	for len(t.routes) <= flowID {
		t.routes = append(t.routes, nil)
	}
	t.routes[flowID] = &Route{FlowID: flowID, Channels: channels}
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	nt := NewTable(len(t.routes))
	for i, r := range t.routes {
		if r != nil {
			nt.routes[i] = r.Clone()
		}
	}
	return nt
}

// Routes returns the non-nil routes in flow-ID order.
func (t *Table) Routes() []*Route {
	var out []*Route
	for _, r := range t.routes {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// MaxLen returns the longest route length in hops.
func (t *Table) MaxLen() int {
	m := 0
	for _, r := range t.routes {
		if r != nil && len(r.Channels) > m {
			m = len(r.Channels)
		}
	}
	return m
}

// AvgLen returns the mean route length over set routes (0 if none).
func (t *Table) AvgLen() float64 {
	n, sum := 0, 0
	for _, r := range t.routes {
		if r != nil {
			n++
			sum += len(r.Channels)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ChannelUsers returns, for every channel, the IDs of flows whose route
// uses it, in flow-ID order.
func (t *Table) ChannelUsers() map[topology.Channel][]int {
	users := make(map[topology.Channel][]int)
	for _, r := range t.routes {
		if r == nil {
			continue
		}
		for _, c := range r.Channels {
			users[c] = append(users[c], r.FlowID)
		}
	}
	return users
}

// LinkLoads returns summed flow bandwidth per physical link.
func (t *Table) LinkLoads(g *traffic.Graph) map[topology.LinkID]float64 {
	loads := make(map[topology.LinkID]float64)
	for _, r := range t.routes {
		if r == nil {
			continue
		}
		bw := g.Flow(r.FlowID).Bandwidth
		for _, c := range r.Channels {
			loads[c.Link] += bw
		}
	}
	return loads
}

// Validate checks that every flow of g has a route, every route is a
// contiguous switch walk from the source core's switch to the destination
// core's switch, all channels exist in the topology, and no physical link
// repeats within one route.
func (t *Table) Validate(top *topology.Topology, g *traffic.Graph) error {
	// seen[l] == epoch marks link l as used by the route being checked;
	// each non-empty route takes a fresh epoch, so one slice serves all.
	seen := make([]int32, top.NumLinks())
	epoch := int32(0)
	for id := 0; id < g.NumFlows(); id++ {
		f := g.Flow(id)
		r := t.Route(f.ID)
		if r == nil {
			return fmt.Errorf("route: flow %d has no route: %w", f.ID, nocerr.ErrInvalidInput)
		}
		srcSw, ok := top.SwitchOf(int(f.Src))
		if !ok {
			return fmt.Errorf("route: core %d not attached to any switch: %w", f.Src, nocerr.ErrInvalidInput)
		}
		dstSw, ok := top.SwitchOf(int(f.Dst))
		if !ok {
			return fmt.Errorf("route: core %d not attached to any switch: %w", f.Dst, nocerr.ErrInvalidInput)
		}
		if len(r.Channels) == 0 {
			if srcSw != dstSw {
				return fmt.Errorf("route: flow %d has empty route but cores on different switches: %w", f.ID, nocerr.ErrInvalidInput)
			}
			continue
		}
		cur := srcSw
		epoch++
		for i, c := range r.Channels {
			if !top.ValidChannel(c) {
				return fmt.Errorf("route: flow %d hop %d uses invalid channel %v: %w", f.ID, i, c, nocerr.ErrInvalidInput)
			}
			if top.FaultedChannel(c) {
				return fmt.Errorf("route: flow %d hop %d crosses faulted link %d: %w", f.ID, i, c.Link, nocerr.ErrInvalidInput)
			}
			l := top.Link(c.Link)
			if l.From != cur {
				return fmt.Errorf("route: flow %d hop %d starts at switch %d, expected %d: %w", f.ID, i, l.From, cur, nocerr.ErrInvalidInput)
			}
			if seen[c.Link] == epoch {
				return fmt.Errorf("route: flow %d revisits physical link %d: %w", f.ID, c.Link, nocerr.ErrInvalidInput)
			}
			seen[c.Link] = epoch
			cur = l.To
		}
		if cur != dstSw {
			return fmt.Errorf("route: flow %d ends at switch %d, want %d: %w", f.ID, cur, dstSw, nocerr.ErrInvalidInput)
		}
	}
	return nil
}
