// Package graph provides a small deterministic directed-graph kernel used
// by the topology, channel-dependency-graph and routing packages.
//
// Nodes are dense non-negative integers assigned by the caller. All
// traversals visit neighbours in insertion order, so every algorithm in
// this package is deterministic for a fixed construction sequence — a
// property the deadlock-removal algorithm relies on for reproducible
// results across runs.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over dense integer node IDs.
//
// The zero value is an empty graph ready to use. Nodes are created
// implicitly by AddEdge or explicitly by Ensure. Parallel edges are
// collapsed: AddEdge is idempotent per (from, to) pair.
type Digraph struct {
	succ    [][]int         // adjacency lists in insertion order
	pred    [][]int         // reverse adjacency lists in insertion order
	edgeSet map[[2]int]bool // existence check for O(1) duplicate rejection
	nEdges  int
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Digraph {
	return &Digraph{
		succ:    make([][]int, 0, n),
		pred:    make([][]int, 0, n),
		edgeSet: make(map[[2]int]bool),
	}
}

// NumEdges reports the number of distinct directed edges.
func (g *Digraph) NumEdges() int { return g.nEdges }

// Ensure grows the graph so that node id exists, creating any missing
// intermediate IDs with empty adjacency.
func (g *Digraph) Ensure(id int) {
	if id < 0 {
		panic(fmt.Sprintf("graph: negative node id %d", id))
	}
	for len(g.succ) <= id {
		g.succ = append(g.succ, nil)
		g.pred = append(g.pred, nil)
	}
}

// AddEdge inserts the directed edge from→to, creating nodes as needed.
// It reports whether the edge was newly added (false if it already existed).
// Self-loops are allowed: a channel that depends on itself is a deadlock
// by definition and is surfaced as a length-1 cycle.
func (g *Digraph) AddEdge(from, to int) bool {
	g.Ensure(from)
	g.Ensure(to)
	if g.edgeSet == nil {
		g.edgeSet = make(map[[2]int]bool)
	}
	key := [2]int{from, to}
	if g.edgeSet[key] {
		return false
	}
	g.edgeSet[key] = true
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.nEdges++
	return true
}

// HasEdge reports whether the directed edge from→to exists.
func (g *Digraph) HasEdge(from, to int) bool {
	if g.edgeSet == nil {
		return false
	}
	return g.edgeSet[[2]int{from, to}]
}

// Succ returns the successors of node id in insertion order.
// The returned slice is owned by the graph and must not be modified.
func (g *Digraph) Succ(id int) []int {
	if id < 0 || id >= len(g.succ) {
		return nil
	}
	return g.succ[id]
}

// Pred returns the predecessors of node id in insertion order.
// The returned slice is owned by the graph and must not be modified.
func (g *Digraph) Pred(id int) []int {
	if id < 0 || id >= len(g.pred) {
		return nil
	}
	return g.pred[id]
}

// OutDegree reports the number of successors of node id.
func (g *Digraph) OutDegree(id int) int { return len(g.Succ(id)) }

// Edges returns all edges sorted by (from, to); useful for stable output.
func (g *Digraph) Edges() [][2]int {
	out := make([][2]int, 0, g.nEdges)
	for from, adj := range g.succ {
		for _, to := range adj {
			out = append(out, [2]int{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Digraph) Clone() *Digraph {
	c := New(len(g.succ))
	c.Ensure(len(g.succ) - 1)
	for from, adj := range g.succ {
		for _, to := range adj {
			c.AddEdge(from, to)
		}
	}
	return c
}
