package route_test

import (
	"container/heap"
	"fmt"

	"github.com/nocdr/nocdr/internal/graph"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// referenceShortestPaths is the map-based router ShortestPathsWeighted
// replaced, kept as the differential oracle: a generic-digraph Dijkstra
// per flow whose edge weights look the link up by endpoint pair and read
// base costs and committed load from maps.
func referenceShortestPaths(top *topology.Topology, g *traffic.Graph, base map[topology.LinkID]float64) (*route.Table, error) {
	sg := graph.New(top.NumSwitches())
	if n := top.NumSwitches(); n > 0 {
		sg.Ensure(n - 1)
	}
	for _, l := range top.Links() {
		if !top.Faulted(l.ID) {
			sg.AddEdge(int(l.From), int(l.To))
		}
	}
	table := route.NewTable(g.NumFlows())
	load := make(map[topology.LinkID]float64, top.NumLinks())
	norm := g.TotalBandwidth()
	if norm <= 0 {
		norm = 1
	}
	baseCost := func(id topology.LinkID) float64 {
		if w, ok := base[id]; ok && w > 0 {
			return w
		}
		return 1
	}
	for _, fid := range g.FlowsSortedByBandwidth() {
		f := g.Flow(fid)
		srcSw, ok1 := top.SwitchOf(int(f.Src))
		dstSw, ok2 := top.SwitchOf(int(f.Dst))
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("reference: flow %d has an unattached core", fid)
		}
		if srcSw == dstSw {
			table.Set(fid, nil)
			continue
		}
		w := func(u, v int) float64 {
			id, ok := top.FindLink(topology.SwitchID(u), topology.SwitchID(v))
			if !ok {
				return 1e12
			}
			return baseCost(id) + load[id]/norm
		}
		path := dijkstraPath(sg, top.NumSwitches(), int(srcSw), int(dstSw), w)
		if path == nil {
			return nil, fmt.Errorf("reference: no path for flow %d", fid)
		}
		channels := make([]topology.Channel, 0, len(path)-1)
		for i := 0; i+1 < len(path); i++ {
			id, _ := top.FindLink(topology.SwitchID(path[i]), topology.SwitchID(path[i+1]))
			channels = append(channels, topology.Chan(id, 0))
			load[id] += f.Bandwidth
		}
		table.Set(fid, channels)
	}
	return table, nil
}

// dijkstraPath returns a minimum-cost node path from src to dst under w
// over the n nodes of g,
// or nil if dst is unreachable, breaking ties toward lower predecessor IDs.
func dijkstraPath(g *graph.Digraph, n, src, dst int, w func(u, v int) float64) []int {
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	const inf = 1e300
	dist := make([]float64, n)
	parent := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		parent[i] = -2
	}
	dist[src] = 0
	parent[src] = -1
	pq := &nodeHeap{{node: src, prio: 0}}
	for pq.Len() > 0 {
		u := heap.Pop(pq).(nodeItem).node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, v := range g.Succ(u) {
			if done[v] {
				continue
			}
			nd := dist[u] + w(u, v)
			if nd < dist[v] || (nd == dist[v] && parent[v] != -2 && u < parent[v]) {
				dist[v] = nd
				parent[v] = u
				heap.Push(pq, nodeItem{node: v, prio: nd})
			}
		}
	}
	if parent[dst] == -2 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

type nodeItem struct {
	node int
	prio float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].node < h[j].node
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
