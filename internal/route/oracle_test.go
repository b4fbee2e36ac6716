package route

import (
	"fmt"
	"slices"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// GridRoutesOracle exports gridRoutesOracle to the external tests,
// which build their grids with internal/regular.
var GridRoutesOracle = gridRoutesOracle

// gridRoutesOracle is GridRoutes as a plain recursive search: sorted
// out-link lists per switch, a closure that regrows its prefix at every
// hop and copies each path it finds, and a BFS escape over those lists.
// It has no path bound and no dead-state memo. It is the differential
// oracle GridRoutes and RegenerateFlows must match path for path.
func gridRoutesOracle(top *topology.Topology, g *traffic.Graph, gs GridSpec, model TurnModel, maxPaths int) (*RouteSet, error) {
	if gs.Cols < 1 || gs.Rows < 1 || gs.Cols*gs.Rows != top.NumSwitches() {
		return nil, fmt.Errorf("oracle: grid %dx%d does not match topology with %d switches: %w",
			gs.Cols, gs.Rows, top.NumSwitches(), nocerr.ErrInvalidInput)
	}
	if maxPaths <= 0 {
		maxPaths = MaxDefaultPaths
	}
	adj := oracleAdjacency(top)
	set := NewRouteSet(g.NumFlows())
	for _, f := range g.Flows() {
		src, ok1 := top.SwitchOf(int(f.Src))
		dst, ok2 := top.SwitchOf(int(f.Dst))
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("oracle: flow %d has an unattached core: %w", f.ID, nocerr.ErrInvalidInput)
		}
		if src == dst {
			set.paths[f.ID] = [][]topology.Channel{nil}
			continue
		}
		var paths [][]topology.Channel
		if model == DOR {
			p, err := DORPath(top, gs, src, dst)
			if err != nil {
				return nil, err
			}
			paths = [][]topology.Channel{p}
		} else {
			paths = oracleMinimal(top, gs, adj, model, src, dst, maxPaths)
		}
		if len(paths) == 0 {
			p, err := oracleBFS(top, adj, src, dst)
			if err != nil {
				return nil, err
			}
			paths = [][]topology.Channel{p}
		}
		set.paths[f.ID] = paths
	}
	return set, nil
}

// oracleAdjacency returns each switch's working out-links in ascending
// link-ID order.
func oracleAdjacency(top *topology.Topology) [][]topology.LinkID {
	adj := make([][]topology.LinkID, top.NumSwitches())
	for sw := range adj {
		links := top.OutLinks(topology.SwitchID(sw))
		slices.Sort(links)
		working := links[:0]
		for _, id := range links {
			if !top.Faulted(id) {
				working = append(working, id)
			}
		}
		adj[sw] = working
	}
	return adj
}

// oracleMinimal DFS-enumerates up to maxPaths minimal src→dst paths the
// model permits, exploring hops in ascending link-ID order.
func oracleMinimal(top *topology.Topology, gs GridSpec, adj [][]topology.LinkID, model TurnModel, src, dst topology.SwitchID, maxPaths int) [][]topology.Channel {
	var out [][]topology.Channel
	var walk func(cur topology.SwitchID, came dir, prefix []topology.Channel)
	walk = func(cur topology.SwitchID, came dir, prefix []topology.Channel) {
		if len(out) >= maxPaths {
			return
		}
		if cur == dst {
			out = append(out, append([]topology.Channel(nil), prefix...))
			return
		}
		d := gs.dist(cur, dst)
		for _, id := range adj[cur] {
			next := top.Link(id).To
			if gs.dist(next, dst) != d-1 {
				continue
			}
			to := gs.hopDir(cur, next)
			if model != MinimalAdaptive && !model.permittedTurn(came, to, int(cur)%gs.Cols) {
				continue
			}
			walk(next, to, append(prefix, topology.Chan(id, 0)))
		}
	}
	walk(src, dirNone, nil)
	return out
}

// oracleBFS is the fewest-hops path over working links, exploring
// neighbours in adj order.
func oracleBFS(top *topology.Topology, adj [][]topology.LinkID, src, dst topology.SwitchID) ([]topology.Channel, error) {
	type hop struct {
		prev topology.SwitchID
		link topology.LinkID
	}
	parent := map[topology.SwitchID]hop{src: {prev: src}}
	queue := []topology.SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		for _, id := range adj[cur] {
			next := top.Link(id).To
			if _, seen := parent[next]; !seen {
				parent[next] = hop{prev: cur, link: id}
				queue = append(queue, next)
			}
		}
	}
	if _, ok := parent[dst]; !ok {
		return nil, fmt.Errorf("oracle: no working path %d→%d: %w", src, dst, nocerr.ErrInvalidInput)
	}
	var rev []topology.Channel
	for cur := dst; cur != src; cur = parent[cur].prev {
		rev = append(rev, topology.Chan(parent[cur].link, 0))
	}
	slices.Reverse(rev)
	return rev, nil
}
