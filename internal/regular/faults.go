package regular

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Spec projects the grid onto the coordinate description the turn-model
// route generators consume.
func (g *Grid) Spec() route.GridSpec {
	return route.GridSpec{Cols: g.Cols, Rows: g.Rows, Wrap: g.Wrap}
}

// SelectFaults picks n distinct links to fail, seeded and deterministic,
// such that the surviving switch graph stays strongly connected — every
// core can still reach every other, so the scenario tests rerouting, not
// partition handling. Candidates are visited in a splitmix64-shuffled
// order derived from seed; a candidate that would disconnect the network
// is skipped. It fails when fewer than n links can be removed safely.
//
// The returned IDs are in selection order; callers typically pass them
// straight to Topology.Fault.
func SelectFaults(g *Grid, n int, seed int64) ([]topology.LinkID, error) {
	top := g.Topology
	if n < 0 {
		return nil, fmt.Errorf("regular: negative fault count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if n >= top.NumLinks() {
		return nil, fmt.Errorf("regular: cannot fault %d of %d links", n, top.NumLinks())
	}
	order := shuffledLinks(top.NumLinks(), uint64(seed)*0x9e3779b97f4a7c15+0x1234567)
	sg := newSwitchGraph(top)
	var picked []topology.LinkID
	for _, id := range order {
		if len(picked) == n {
			break
		}
		if sg.down[id] {
			continue // already down before selection started
		}
		sg.down[id] = true
		if sg.stronglyConnected() {
			picked = append(picked, id)
		} else {
			sg.down[id] = false
		}
	}
	if len(picked) < n {
		return nil, fmt.Errorf("regular: only %d of %d requested faults keep %s connected",
			len(picked), n, top.Name)
	}
	return picked, nil
}

// shuffledLinks returns 0..n-1 permuted by a seeded Fisher-Yates over a
// splitmix64 stream.
func shuffledLinks(n int, state uint64) []topology.LinkID {
	out := make([]topology.LinkID, n)
	for i := range out {
		out[i] = topology.LinkID(i)
	}
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// switchGraph is a topology's switch graph in CSR form, forward and
// reversed, built once per SelectFaults call so that each candidate
// fault costs two BFSs and no allocation.
type switchGraph struct {
	fwd, rev csr
	// down masks the links that carry no traffic: faulted before
	// selection started, plus the candidate picks so far.
	down  []bool
	seen  []bool // BFS visited marks, per switch
	queue []int32
}

// csr holds each switch's arcs contiguously: switch s's arcs are
// arcs[start[s]:start[s+1]], in link-ID order.
type csr struct {
	start []int32
	arcs  []arc
}

type arc struct{ to, link int32 }

func newSwitchGraph(top *topology.Topology) *switchGraph {
	n, m := top.NumSwitches(), top.NumLinks()
	sg := &switchGraph{
		fwd:  newCSR(top, false),
		rev:  newCSR(top, true),
		down: make([]bool, m),
		seen: make([]bool, n),
	}
	for id := range sg.down {
		sg.down[id] = top.Faulted(topology.LinkID(id))
	}
	return sg
}

// newCSR groups the links by source switch, or by destination switch
// (with the arcs pointing backwards) when reverse is set, each group in
// link-ID order.
func newCSR(top *topology.Topology, reverse bool) csr {
	n, m := top.NumSwitches(), top.NumLinks()
	c := csr{start: make([]int32, n+1), arcs: make([]arc, m)}
	ends := func(id int) (int32, int32) {
		l := top.Link(topology.LinkID(id))
		if reverse {
			return int32(l.To), int32(l.From)
		}
		return int32(l.From), int32(l.To)
	}
	for id := 0; id < m; id++ {
		src, _ := ends(id)
		c.start[src+1]++
	}
	for s := 0; s < n; s++ {
		c.start[s+1] += c.start[s]
	}
	next := append([]int32(nil), c.start[:n]...)
	for id := 0; id < m; id++ {
		src, dst := ends(id)
		c.arcs[next[src]] = arc{to: dst, link: int32(id)}
		next[src]++
	}
	return c
}

// stronglyConnected reports whether the switch graph minus the down
// links is strongly connected: every switch is reached from switch 0,
// and every switch reaches it.
func (sg *switchGraph) stronglyConnected() bool {
	return len(sg.seen) <= 1 || (sg.reachesAll(&sg.fwd) && sg.reachesAll(&sg.rev))
}

// reachesAll reports whether a BFS from switch 0 over the arcs of c whose
// link is up visits every switch.
func (sg *switchGraph) reachesAll(c *csr) bool {
	clear(sg.seen)
	sg.seen[0] = true
	q := append(sg.queue[:0], 0)
	for i := 0; i < len(q); i++ {
		u := q[i]
		for _, a := range c.arcs[c.start[u]:c.start[u+1]] {
			if !sg.down[a.link] && !sg.seen[a.to] {
				sg.seen[a.to] = true
				q = append(q, a.to)
			}
		}
	}
	sg.queue = q
	return len(q) == len(sg.seen)
}
