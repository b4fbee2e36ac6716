// Package cdg builds and analyzes the Channel Dependency Graph of
// Definition 4: one vertex per channel (physical link + virtual channel)
// and a directed edge ci→cj whenever at least one flow's route uses
// channel ci immediately followed by channel cj. Dally & Towles' theorem
// (the paper's reference [10]) makes a cycle in this graph the necessary
// condition for a routing deadlock under wormhole flow control, so
// "deadlock-free" below always means "the CDG is acyclic".
package cdg

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Dependency is a directed CDG edge together with the flows that create it.
type Dependency struct {
	From, To topology.Channel
	Flows    []int // flow IDs, ascending
}

// CDG is an immutable channel dependency graph built from a topology and
// a route table: a read-only view of a freshly built Incremental whose
// strongly connected components and their smallest cycles are analyzed
// once, at Build. Vertex IDs are dense and assigned in the topology's
// canonical (link, VC) channel order, so two CDGs built from identical
// inputs are identical. Its methods only read, so one CDG may be queried
// from several goroutines at once.
type CDG struct{ m *Incremental }

// Build constructs the CDG for the given topology and routes. Routes may
// reference only provisioned channels; Build returns an error otherwise.
func Build(top *topology.Topology, table *route.Table) (*CDG, error) {
	m, err := BuildIncremental(top, table)
	if err != nil {
		return nil, err
	}
	m.refresh()
	return &CDG{m}, nil
}

// BuildSet constructs the CDG over the *union* of a route set's permitted
// channel transitions: the set is flattened into pseudo-flows (one per
// candidate path, see route.RouteSet.Flatten) and Build runs on the
// result unchanged. Edge attributions (FlowsOn, Dependencies) therefore
// name pseudo-flow IDs; the returned refs map them back to (flow, path).
// For a single-path set the pseudo-flow IDs equal the real flow IDs and
// the graph is identical to Build on the equivalent table.
func BuildSet(top *topology.Topology, set *route.RouteSet) (*CDG, []route.PathRef, error) {
	tab, refs := set.Flatten()
	c, err := Build(top, tab)
	if err != nil {
		return nil, nil, err
	}
	return c, refs, nil
}

// NumChannels returns the number of CDG vertices.
func (c *CDG) NumChannels() int { return c.m.NumChannels() }

// NumDependencies returns the number of CDG edges.
func (c *CDG) NumDependencies() int { return c.m.NumDependencies() }

// Channel returns the channel for a vertex ID.
func (c *CDG) Channel(id int) topology.Channel { return c.m.chans[id] }

// VertexOf returns the vertex ID of a channel, if it exists in the CDG.
func (c *CDG) VertexOf(ch topology.Channel) (int, bool) {
	if v := c.m.lookup(ch); v >= 0 {
		return v, true
	}
	return 0, false
}

// HasDependency reports whether the dependency from→to exists.
func (c *CDG) HasDependency(from, to topology.Channel) bool {
	fi, ti := c.m.lookup(from), c.m.lookup(to)
	return fi >= 0 && ti >= 0 && c.m.hasEdge(fi, ti)
}

// FlowsOn returns the flows creating the dependency from→to (ascending),
// or nil if the dependency does not exist.
func (c *CDG) FlowsOn(from, to topology.Channel) []int {
	fi, ti := c.m.lookup(from), c.m.lookup(to)
	if fi < 0 || ti < 0 {
		return nil
	}
	if k := c.m.edge(fi, ti); k >= 0 {
		return slices.Clone(c.m.flows[fi][k])
	}
	return nil
}

// Dependencies returns every CDG edge with its creating flows, sorted by
// (from, to) vertex ID.
func (c *CDG) Dependencies() []Dependency { return c.m.Dependencies() }

// Acyclic reports whether the CDG has no cycles — the paper's deadlock-
// freedom condition.
func (c *CDG) Acyclic() bool { return c.m.Acyclic() }

// SmallestCycle implements the paper's GetSmallestCycle: the shortest
// cycle as an ordered channel list (the closing dependency from the last
// back to the first channel is implicit), rotated to start at its
// smallest channel, or nil if the CDG is acyclic. Among equal-length
// cycles the one found from the smallest start channel wins.
func (c *CDG) SmallestCycle() []topology.Channel { return c.m.SmallestCycle() }

// SmallestCycleThrough returns the shortest cycle passing through the
// given channel (rotated to start at it), or nil if the channel lies on
// no cycle or is unknown. It runs one BFS from the channel, on its own
// arrays, so concurrent readers do not share work state.
func (c *CDG) SmallestCycleThrough(ch topology.Channel) []topology.Channel {
	m := c.m
	start := m.lookup(ch)
	if start < 0 {
		return nil
	}
	parent := make([]int, len(m.chans))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[start] = -1
	queue := []int{start}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range m.succ[u] {
			if v == start {
				var cycle []int
				for x := u; x != -1; x = parent[x] {
					cycle = append(cycle, x)
				}
				slices.Reverse(cycle)
				return m.toChannels(cycle)
			}
			if parent[v] == -2 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// cyclicVertices returns the vertices on at least one cycle — the members
// of the non-trivial strongly connected components — ascending, which is
// canonical channel order in a graph Build numbered.
func (c *CDG) cyclicVertices() []int {
	var out []int
	for _, e := range c.m.sccs {
		out = append(out, e.members...)
	}
	slices.Sort(out)
	return out
}

// CyclicChannels returns the channels involved in at least one cycle,
// in canonical order.
func (c *CDG) CyclicChannels() []topology.Channel {
	ids := c.cyclicVertices()
	out := make([]topology.Channel, len(ids))
	for i, v := range ids {
		out[i] = c.m.chans[v]
	}
	return out
}

// CountCycles counts elementary cycles up to limit (<=0 for all),
// returning min(total, limit). It enumerates each non-trivial strongly
// connected component's cycles by depth-first search, anchoring every
// cycle at its smallest channel, so the cost can be exponential; it
// exists for diagnostics and tests, while removal only ever needs the
// smallest cycle.
func (c *CDG) CountCycles(limit int) int {
	m := c.m
	inComp := make([]bool, len(m.chans))
	onPath := make([]bool, len(m.chans))
	count := 0
	// dfs extends a simple path from root through v, counting every edge
	// that closes it back at root; it reports whether limit was reached.
	var dfs func(root, v int) bool
	dfs = func(root, v int) bool {
		onPath[v] = true
		defer func() { onPath[v] = false }()
		for _, w := range m.succ[v] {
			switch {
			case !inComp[w] || w < root:
				// only cycles whose smallest channel is root
			case w == root:
				if count++; count == limit {
					return true
				}
			case !onPath[w]:
				if dfs(root, w) {
					return true
				}
			}
		}
		return false
	}
	for _, e := range m.sccs {
		for _, v := range e.members {
			inComp[v] = true
		}
		for _, root := range e.members {
			if dfs(root, root) {
				return count
			}
		}
		for _, v := range e.members {
			inComp[v] = false
		}
	}
	return count
}

// String renders a compact summary like "CDG{5 channels, 5 deps, cyclic}".
func (c *CDG) String() string {
	state := "acyclic"
	if !c.Acyclic() {
		state = "cyclic"
	}
	return fmt.Sprintf("CDG{%d channels, %d deps, %s}", c.NumChannels(), c.NumDependencies(), state)
}

// WriteDOT renders the CDG in Graphviz DOT format with the paper's
// channel naming (L1, L1', …). Vertices on cycles are drawn doubled.
func (c *CDG) WriteDOT(w io.Writer) error {
	m := c.m
	var b strings.Builder
	b.WriteString("digraph cdg {\n  node [shape=ellipse];\n")
	cyclic := make([]bool, len(m.chans))
	for _, v := range c.cyclicVertices() {
		cyclic[v] = true
	}
	for id, ch := range m.chans {
		attr := ""
		if cyclic[id] {
			attr = ", peripheries=2"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", id, m.top.ChannelName(ch), attr)
	}
	for _, v := range m.order {
		for k, to := range m.succ[v] {
			flows := m.flows[v][k]
			labels := make([]string, len(flows))
			for i, f := range flows {
				labels[i] = fmt.Sprintf("F%d", f+1)
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", v, to, strings.Join(labels, ","))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
