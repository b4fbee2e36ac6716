package cdg

import (
	"errors"
	"fmt"
	"math"

	"github.com/nocdr/nocdr/internal/topology"
)

// Paths walks a route collection: it calls visit once per route (or
// candidate path) with the flow ID Build attributes it to and its
// channel sequence, in the same order on every call. The sequences are
// read, never kept or modified, so a walk may hand out the collection's
// own slices.
type Paths func(visit func(flow int, channels []topology.Channel))

// errTooLarge is ProveAcyclic's answer for a graph its int32 indices
// cannot hold.
var errTooLarge = errors.New("cdg: graph too large for the acyclicity pass")

// ProveAcyclic reports whether the channel dependency graph the paths
// induce over top is acyclic: the graph of their consecutive-hop
// dependencies peels completely under Kahn's algorithm. A cycle, a
// self-dependency and a repeated channel included, answers false. A hop
// on an unknown link or on a VC its link lacks is an error in Build's
// words, naming the first such hop in walk order, so a walk in Build's
// route order fails exactly as Build does. A graph too large for the
// pass's int32 indices is an error too. Faulted links are not rejected,
// as Build does not reject them.
//
// It is how every yes/no question about a CDG is answered: it builds no
// maps, no per-edge flow lists and no cycle search, only a dense channel
// index from per-link VC offsets and a CSR of the dependency edges, and
// it walks the paths twice (count, then fill).
func ProveAcyclic(top *topology.Topology, paths Paths) (bool, error) {
	// vcOff[l] is link l's first vertex; vcOff[nLinks] is the vertex
	// count.
	nLinks, nv := top.NumLinks(), 0
	vcOff := make([]int32, nLinks+1)
	for l := 0; l < nLinks; l++ {
		nv += max(top.Link(topology.LinkID(l)).VCs, 0)
		if nv > math.MaxInt32/2 {
			return false, errTooLarge
		}
		vcOff[l+1] = int32(nv)
	}
	vertex := func(ch topology.Channel) int32 {
		if ch.Link < 0 || int(ch.Link) >= nLinks || ch.VC < 0 || ch.VC >= int(vcOff[ch.Link+1]-vcOff[ch.Link]) {
			return -1
		}
		return vcOff[ch.Link] + int32(ch.VC)
	}

	// Count pass: off[v+1] is v's out-degree, indeg[v] its in-degree.
	buf := make([]int32, 2*nv+1)
	off, indeg := buf[:nv+1], buf[nv+1:]
	edges := 0
	var err error
	paths(func(flow int, channels []topology.Channel) {
		if err != nil {
			return
		}
		prev := int32(-1)
		for i, ch := range channels {
			v := vertex(ch)
			if v < 0 {
				err = fmt.Errorf("cdg: flow %d hop %d uses unprovisioned channel %v", flow, i, ch)
				return
			}
			if i > 0 {
				off[prev+1]++
				indeg[v]++
				edges++
			}
			prev = v
		}
	})
	if err != nil {
		return false, err
	}
	if edges > math.MaxInt32-nv {
		return false, errTooLarge
	}
	for v := 0; v < nv; v++ {
		off[v+1] += off[v]
	}

	// Fill pass: off[v] serves as v's fill cursor, so afterwards it
	// holds the end of v's run, which is where v+1's begins.
	work := make([]int32, edges+nv)
	adj, queue := work[:edges], work[edges:edges]
	paths(func(_ int, channels []topology.Channel) {
		for i := 1; i < len(channels); i++ {
			from := vertex(channels[i-1])
			adj[off[from]] = vertex(channels[i])
			off[from]++
		}
	})

	// Kahn's peel: the graph is acyclic iff every vertex peels.
	for v := 0; v < nv; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		start := int32(0)
		if v > 0 {
			start = off[v-1]
		}
		for _, w := range adj[start:off[v]] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return len(queue) == nv, nil
}
