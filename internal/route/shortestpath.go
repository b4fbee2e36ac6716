package route

import (
	"fmt"
	"math/bits"
	"slices"

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

// ShortestPathsWeighted is ShortestPaths with per-link base costs,
// indexed by link ID: a link past the end of base, or whose base cost is
// not > 0, costs 1. Topology synthesis uses this to keep through-traffic
// on its spanning backbone: backbone links cost 1 and chord links
// slightly more, so a chord is taken for the pair it directly connects
// but rarely mid-route — which is what keeps synthesized designs largely
// free of channel-dependency cycles, like the designs the paper's own
// synthesis tool produced.
//
// The routes share one backing array, each capped at its length, so
// appending to one route's channels never writes into another's.
func ShortestPathsWeighted(top *topology.Topology, g *traffic.Graph, base []float64) (*Table, error) {
	// Normalizing by total bandwidth keeps the load term a tie-breaker:
	// hop count dominates, congestion decides among equal-length paths.
	norm := g.TotalBandwidth()
	if norm <= 0 {
		norm = 1
	}
	r := newRouter(top, base, norm)
	// switchOf[c] is core c's switch, or -1 when c is not attached.
	switchOf := make([]int32, g.NumCores())
	for c := range switchOf {
		sw, ok := top.SwitchOf(c)
		if !ok {
			sw = -1
		}
		switchOf[c] = int32(sw)
	}
	// span[f] is flow f's stretch of r.buf; a local flow keeps an empty one.
	span := make([][2]int, g.NumFlows())
	for _, fid := range g.FlowsSortedByBandwidth() {
		f := g.Flow(fid)
		srcSw, dstSw := switchOf[f.Src], switchOf[f.Dst]
		if srcSw < 0 {
			return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Src, fid, nocerr.ErrInvalidInput)
		}
		if dstSw < 0 {
			return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Dst, fid, nocerr.ErrInvalidInput)
		}
		if srcSw == dstSw {
			continue
		}
		lo := len(r.buf)
		channels := r.path(int(srcSw), int(dstSw))
		if channels == nil {
			return nil, fmt.Errorf("route: no path for flow %d from switch %d to %d: %w", fid, srcSw, dstSw, nocerr.ErrInvalidInput)
		}
		r.commit(channels, f.Bandwidth)
		span[fid] = [2]int{lo, len(r.buf)}
	}
	// Carve the routes only now: r.buf may have moved while it grew.
	routes := make([]Route, len(span))
	table := &Table{routes: make([]*Route, len(span))}
	for fid, s := range span {
		routes[fid].FlowID = fid
		if s[1] > s[0] {
			routes[fid].Channels = r.buf[s[0]:s[1]:s[1]]
		}
		table.routes[fid] = &routes[fid]
	}
	return table, nil
}

// unreached is the distance of a node no search step has reached.
const unreached = 1e300

// arc is one non-faulted link in the router's CSR adjacency, carrying
// the link's current weight.
type arc struct {
	to   int32
	link int32
	w    float64
}

// router is a Dijkstra kernel over dense arrays, built once per routing
// call and reused for every flow. Faulted links are left out, so every
// path routes around them. Switch s's out-arcs are
// adj[start[s]:start[s+1]] in link-ID order — the order the reference
// router's successor lists keep — so relaxations and ties happen exactly
// as they do there. A link weighs its base cost plus the bandwidth
// already committed to it, divided by norm; each arc caches that weight,
// computed when the router is built and again whenever a route commits
// load to its link, so a relaxation adds without dividing.
//
// The frontier (reached, not settled) and the settled set are bitsets,
// and each step settles the frontier's least (dist, node). That is the
// order the reference router's lazy (prio, node) heap settles nodes in:
// a node's live entry holds its current distance and its stale entries
// only larger ones, so its first pop is the live entry, and it comes
// when that key is the least among reached, unsettled nodes.
type router struct {
	start []int32
	adj   []arc
	arcOf []int32   // link → its arc in adj (unused for a faulted link)
	cost  []float64 // resolved base cost per link
	load  []float64 // committed bandwidth per link
	norm  float64

	dist       []float64
	parent     []int32 // -1 at the source, -2 when unreached
	parentLink []int32
	frontier   []uint64
	settled    []uint64

	buf []topology.Channel // every path found so far, back to back
}

func newRouter(top *topology.Topology, base []float64, norm float64) *router {
	n, m := top.NumSwitches(), top.NumLinks()
	words := (n + 63) / 64
	r := &router{
		start:      make([]int32, n+1),
		arcOf:      make([]int32, m),
		cost:       make([]float64, m),
		load:       make([]float64, m),
		norm:       norm,
		dist:       make([]float64, n),
		parent:     make([]int32, n),
		parentLink: make([]int32, n),
		frontier:   make([]uint64, words),
		settled:    make([]uint64, words),
	}
	live := 0
	for id := range m {
		r.cost[id] = 1
		if id < len(base) && base[id] > 0 {
			r.cost[id] = base[id]
		}
		if l := top.Link(topology.LinkID(id)); !top.Faulted(l.ID) {
			r.start[l.From+1]++
			live++
		}
	}
	for s := 0; s < n; s++ {
		r.start[s+1] += r.start[s]
	}
	// parent is free until the first search, so it serves as each
	// switch's fill cursor.
	next := r.parent
	copy(next, r.start[:n])
	r.adj = make([]arc, live)
	for id := range m {
		l := top.Link(topology.LinkID(id))
		if top.Faulted(l.ID) {
			continue
		}
		k := next[l.From]
		next[l.From]++
		r.adj[k] = arc{to: int32(l.To), link: int32(id), w: r.weight(id)}
		r.arcOf[id] = k
	}
	return r
}

// weight is link l's cost under the load committed so far.
func (r *router) weight(l int) float64 {
	return r.cost[l] + r.load[l]/r.norm
}

// commit adds a routed flow's bandwidth to every link of its path and
// refreshes those links' arc weights.
func (r *router) commit(channels []topology.Channel, bw float64) {
	for _, c := range channels {
		r.load[c.Link] += bw
		r.adj[r.arcOf[c.Link]].w = r.weight(int(c.Link))
	}
}

// path appends a minimum-cost channel list from src to dst to r.buf and
// returns it, or returns nil if dst is unreachable. Ties are broken
// toward lower predecessor IDs, so the result is deterministic. src and
// dst must differ.
func (r *router) path(src, dst int) []topology.Channel {
	n := len(r.dist)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	dist, parent := r.dist, r.parent
	for i := range dist {
		dist[i] = unreached
		parent[i] = -2
	}
	clear(r.frontier)
	clear(r.settled)
	dist[src] = 0
	parent[src] = -1
	r.frontier[src>>6] |= 1 << (src & 63)
	for {
		u := r.closest()
		if u < 0 {
			break
		}
		r.frontier[u>>6] &^= 1 << (u & 63)
		r.settled[u>>6] |= 1 << (u & 63)
		if int(u) == dst {
			break
		}
		for _, a := range r.adj[r.start[u]:r.start[u+1]] {
			v := a.to
			if r.settled[v>>6]&(1<<(v&63)) != 0 {
				continue
			}
			nd := dist[u] + a.w
			if nd < dist[v] || (nd == dist[v] && parent[v] != -2 && u < parent[v]) {
				dist[v] = nd
				parent[v] = u
				r.parentLink[v] = a.link
				r.frontier[v>>6] |= 1 << (v & 63)
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
	lo := len(r.buf)
	r.buf = slices.Grow(r.buf, hops)[:lo+hops]
	for v, i := int32(dst), lo+hops-1; parent[v] != -1; v, i = parent[v], i-1 {
		r.buf[i] = topology.Chan(topology.LinkID(r.parentLink[v]), 0)
	}
	return r.buf[lo:]
}

// closest returns the frontier node with the least (dist, node), walking
// the set bits in ascending node order, or -1 when the frontier is empty.
// A reached node's distance is below the unreached sentinel, since only a
// shorter one relaxes it.
func (r *router) closest() int32 {
	best, bestDist := int32(-1), unreached
	for w, word := range r.frontier {
		for word != 0 {
			v := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if r.dist[v] < bestDist {
				best, bestDist = v, r.dist[v]
			}
		}
	}
	return best
}
