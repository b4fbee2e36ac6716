package graph

// BFSPath returns a shortest (fewest-hops) path from src to dst as a node
// sequence including both endpoints, or nil if dst is unreachable.
// When src == dst it returns the single-node path.
func (g *Digraph) BFSPath(src, dst int) []int {
	n := len(g.succ)
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[src] = -1
	queue := []int{src}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.succ[u] {
			if parent[v] != -2 {
				continue
			}
			parent[v] = u
			if v == dst {
				return reconstructFrom(parent, dst)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

func reconstructFrom(parent []int, last int) []int {
	var rev []int
	for v := last; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	out := make([]int, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// Reachable reports whether dst is reachable from src (src reaches itself).
func (g *Digraph) Reachable(src, dst int) bool {
	return g.BFSPath(src, dst) != nil
}
