package route

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// ShortestPaths computes a deterministic, load-aware static route for
// every flow of g over topology top. Flows are routed in descending
// bandwidth order (heavy flows get the straightest paths); each link's
// cost grows with the bandwidth already committed to it, which spreads
// traffic the way bandwidth-constrained NoC synthesis flows do. All
// routes use VC 0 of each link — the deadlock-removal algorithm is what
// later moves flows onto higher VCs.
func ShortestPaths(top *topology.Topology, g *traffic.Graph) (*Table, error) {
	return ShortestPathsWeighted(top, g, nil)
}

// ShortestPathsWeighted is ShortestPaths with per-link base costs (links
// absent from base default to 1). Topology synthesis uses this to keep
// through-traffic on its spanning backbone: backbone links cost 1 and
// chord links slightly more, so a chord is taken for the pair it directly
// connects but rarely mid-route — which is what keeps synthesized designs
// largely free of channel-dependency cycles, like the designs the paper's
// own synthesis tool produced.
func ShortestPathsWeighted(top *topology.Topology, g *traffic.Graph, base map[topology.LinkID]float64) (*Table, error) {
	r := newRouter(top, base)
	table := NewTable(g.NumFlows())
	// Normalizing by total bandwidth keeps the load term a tie-breaker:
	// hop count dominates, congestion decides among equal-length paths.
	norm := g.TotalBandwidth()
	if norm <= 0 {
		norm = 1
	}
	for _, fid := range g.FlowsSortedByBandwidth() {
		f := g.Flow(fid)
		srcSw, ok := top.SwitchOf(int(f.Src))
		if !ok {
			return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Src, fid, nocerr.ErrInvalidInput)
		}
		dstSw, ok := top.SwitchOf(int(f.Dst))
		if !ok {
			return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Dst, fid, nocerr.ErrInvalidInput)
		}
		if srcSw == dstSw {
			table.Set(fid, nil)
			continue
		}
		channels := r.path(int(srcSw), int(dstSw), norm)
		if channels == nil {
			return nil, fmt.Errorf("route: no path for flow %d from switch %d to %d: %w", fid, srcSw, dstSw, nocerr.ErrInvalidInput)
		}
		for _, c := range channels {
			r.load[c.Link] += f.Bandwidth
		}
		table.Set(fid, channels)
	}
	return table, nil
}

// arc is one non-faulted link in the router's CSR adjacency.
type arc struct {
	to   int32
	link topology.LinkID
}

// heapItem is a frontier entry, ordered by (prio, node).
type heapItem struct {
	prio float64
	node int32
}

func (a heapItem) less(b heapItem) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.node < b.node
}

// router is a Dijkstra kernel over dense arrays, built once per routing
// call and reused for every flow. Faulted links are left out, so every
// path routes around them. Switch s's out-arcs are
// adj[start[s]:start[s+1]] in link-ID order — the order the reference
// router's successor lists keep — so relaxations, ties and heap pops
// happen exactly as they do there. A link
// costs its base cost plus the bandwidth already committed to it,
// divided by the caller's normaliser.
type router struct {
	start []int32
	adj   []arc
	cost  []float64 // resolved base cost per link
	load  []float64 // committed bandwidth per link

	dist       []float64
	parent     []int32 // -1 at the source, -2 when unreached
	parentLink []topology.LinkID
	done       []bool
	heap       []heapItem
}

func newRouter(top *topology.Topology, base map[topology.LinkID]float64) *router {
	n, m := top.NumSwitches(), top.NumLinks()
	r := &router{
		start:      make([]int32, n+1),
		cost:       make([]float64, m),
		load:       make([]float64, m),
		dist:       make([]float64, n),
		parent:     make([]int32, n),
		parentLink: make([]topology.LinkID, n),
		done:       make([]bool, n),
	}
	links := top.Links()
	live := 0
	for _, l := range links {
		r.cost[l.ID] = 1
		if w, ok := base[l.ID]; ok && w > 0 {
			r.cost[l.ID] = w
		}
		if !top.Faulted(l.ID) {
			r.start[l.From+1]++
			live++
		}
	}
	for s := 0; s < n; s++ {
		r.start[s+1] += r.start[s]
	}
	r.adj = make([]arc, live)
	next := append([]int32(nil), r.start[:n]...)
	for _, l := range links {
		if top.Faulted(l.ID) {
			continue
		}
		r.adj[next[l.From]] = arc{to: int32(l.To), link: l.ID}
		next[l.From]++
	}
	return r
}

// path returns a minimum-cost channel list from src to dst, or nil if dst
// is unreachable. Ties are broken toward lower predecessor IDs, so the
// result is deterministic. src and dst must differ.
func (r *router) path(src, dst int, norm float64) []topology.Channel {
	n := len(r.dist)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	const inf = 1e300
	dist, parent, done := r.dist, r.parent, r.done
	for i := range dist {
		dist[i] = inf
		parent[i] = -2
		done[i] = false
	}
	dist[src] = 0
	parent[src] = -1
	r.heap = append(r.heap[:0], heapItem{node: int32(src)})
	for len(r.heap) > 0 {
		u := r.pop().node
		if done[u] {
			continue
		}
		done[u] = true
		if int(u) == dst {
			break
		}
		for _, a := range r.adj[r.start[u]:r.start[u+1]] {
			v := a.to
			if done[v] {
				continue
			}
			nd := dist[u] + (r.cost[a.link] + r.load[a.link]/norm)
			if nd < dist[v] || (nd == dist[v] && parent[v] != -2 && u < parent[v]) {
				dist[v] = nd
				parent[v] = u
				r.parentLink[v] = a.link
				r.push(heapItem{prio: nd, node: v})
			}
		}
	}
	if parent[dst] == -2 {
		return nil
	}
	hops := 0
	for v := int32(dst); parent[v] != -1; v = parent[v] {
		hops++
	}
	channels := make([]topology.Channel, hops)
	for v := int32(dst); parent[v] != -1; v = parent[v] {
		hops--
		channels[hops] = topology.Chan(r.parentLink[v], 0)
	}
	return channels
}

// push and pop follow container/heap's sift order step for step, so the
// pop sequence matches a container/heap queue under the same less.
func (r *router) push(it heapItem) {
	h := append(r.heap, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	r.heap = h
}

func (r *router) pop() heapItem {
	h := r.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].less(h[j]) {
			j = j2
		}
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	r.heap = h[:n]
	return h[n]
}
