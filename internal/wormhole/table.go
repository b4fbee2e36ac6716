package wormhole

import (
	"fmt"
	"slices"
)

// table is a design's transition table in CSR form, built once and shared
// read-only by every Batch lane. Each flow owns a source node plus one
// node per distinct channel its paths use; node v's permitted next
// channels are succ[succOff[v]:succOff[v+1]], ascending by channel, each
// with the node it enters. A route is a chain of single-successor nodes,
// and a node without successors is final: its channel ejects.
type table struct {
	succOff []int32
	succ    []edge
	// enter is what chanState.next becomes when a head enters the node's
	// channel: -1 if final, the only successor, or pending when the head
	// must choose. A flow whose transitions loop keeps every node pending,
	// because only a free channel may take a head that could meet its own
	// worm again.
	enter []int32
}

// edge is one permitted transition: the next channel and its node.
type edge struct{ ch, node int32 }

// addFlow appends one flow's nodes, built from its candidate paths as
// dense channel indices, and returns its source node.
func (t *table) addFlow(flow int, paths [][]int32) (int32, error) {
	src := int32(len(t.enter))
	node := map[int32]int32{} // channel → local node; the source is 0
	outs := [][]int32{nil}    // local node → next channels
	ends := map[int32]bool{}  // channels that end a path
	for _, p := range paths {
		from := int32(0)
		for _, ch := range p {
			to, ok := node[ch]
			if !ok {
				to = int32(len(outs))
				node[ch] = to
				outs = append(outs, nil)
			}
			if !slices.Contains(outs[from], ch) {
				outs[from] = append(outs[from], ch)
			}
			from = to
		}
		if len(p) > 0 {
			ends[p[len(p)-1]] = true
		}
	}
	// A channel that ends some path cannot also continue another: the
	// head must know on entry whether the worm ejects there.
	for ch := range ends {
		if len(outs[node[ch]]) > 0 {
			return 0, fmt.Errorf("wormhole: flow %d channel %d is both final and transitive in its route set", flow, ch)
		}
	}
	loops := hasLoop(outs, node)
	for _, next := range outs {
		slices.Sort(next)
		for _, ch := range next {
			t.succ = append(t.succ, edge{ch: ch, node: src + node[ch]})
		}
		t.succOff = append(t.succOff, int32(len(t.succ)))
		switch {
		case len(next) == 0:
			t.enter = append(t.enter, -1)
		case len(next) == 1 && !loops:
			t.enter = append(t.enter, next[0])
		default:
			t.enter = append(t.enter, pending)
		}
	}
	return src, nil
}

// out returns node v's successors.
func (t *table) out(v int32) []edge { return t.succ[t.succOff[v]:t.succOff[v+1]] }

// step returns the node a head enters when it leaves node from for
// channel ch, which must be one of from's successors.
func (t *table) step(from, ch int32) int32 {
	for _, e := range t.out(from) {
		if e.ch == ch {
			return e.node
		}
	}
	panic("wormhole: move outside the transition table")
}

// hasLoop reports whether one flow's transitions, reachable from its
// source (local node 0), contain a cycle.
func hasLoop(outs [][]int32, node map[int32]int32) bool {
	state := make([]uint8, len(outs)) // 0 unvisited, 1 on the DFS stack, 2 done
	var visit func(v int32) bool
	visit = func(v int32) bool {
		state[v] = 1
		for _, ch := range outs[v] {
			w := node[ch]
			if state[w] == 1 || state[w] == 0 && visit(w) {
				return true
			}
		}
		state[v] = 2
		return false
	}
	return visit(0)
}
