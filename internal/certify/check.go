package certify

import "fmt"

// Check rebuilds the CDG from the design bytes and issues a certificate.
// mode is the caller's claim: "pre" (pre-removal, expected cyclic) or
// "post" (post-removal, expected acyclic). The claim is recorded, not
// enforced — Check always reports what the graph actually is; callers
// compare Acyclic against their expectation.
func Check(designJSON []byte, mode string) (*Certificate, error) {
	if mode != "pre" && mode != "post" {
		return nil, fmt.Errorf("%w: mode %q (want \"pre\" or \"post\")", ErrSchema, mode)
	}
	g, err := rebuild(designJSON)
	if err != nil {
		return nil, err
	}
	cert := &Certificate{
		CheckerVersion: Version,
		Salt:           Salt,
		DesignSHA256:   sha256Hex(designJSON),
		Mode:           mode,
		Channels:       len(g.channels),
		Dependencies:   g.edges,
	}
	if order, ok := g.toposort(); ok {
		cert.Acyclic = true
		cert.TopoOrder = make([]Channel, len(order))
		for i, v := range order {
			cert.TopoOrder[i] = g.channels[v]
		}
		return cert, nil
	}
	cycle := g.smallestCycle()
	cert.Cycle = make([]Channel, len(cycle))
	for i, v := range cycle {
		cert.Cycle[i] = g.channels[v]
	}
	return cert, nil
}

// toposort runs Kahn's algorithm with a deterministic smallest-vertex
// tie-break (vertex IDs follow the canonical channel order, so the
// witness is stable across runs). Returns the order and true iff the
// graph is acyclic.
func (g *cdgraph) toposort() ([]int, bool) {
	n := len(g.channels)
	indeg := make([]int, n)
	for _, out := range g.adj {
		for _, w := range out {
			indeg[w]++
		}
	}
	// ready is a min-heap of zero-indegree vertices.
	var ready intHeap
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready.push(v)
		}
	}
	order := make([]int, 0, n)
	for ready.len() > 0 {
		v := ready.pop()
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready.push(w)
			}
		}
	}
	return order, len(order) == n
}

// smallestCycle finds a minimum-length dependency cycle by BFS from each
// vertex back to itself, preferring the lexicographically smallest start
// among equal lengths (start vertices are scanned in canonical order).
// Must only be called on a graph toposort rejected.
func (g *cdgraph) smallestCycle() []int {
	n := len(g.channels)
	best := []int(nil)
	parent := make([]int, n)
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		if best != nil && len(best) == 2 {
			break // a 2-cycle (or self-loop, len 1) cannot be beaten by later starts
		}
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		parent[s] = -1
		queue := []int{s}
		found := -1
		for len(queue) > 0 && found < 0 {
			v := queue[0]
			queue = queue[1:]
			if best != nil && dist[v]+1 >= len(best) {
				continue // cannot close a shorter cycle through v
			}
			for _, w := range g.adj[v] {
				if w == s {
					found = v
					break
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		if found < 0 {
			continue
		}
		cycle := []int{}
		for v := found; v != -1; v = parent[v] {
			cycle = append(cycle, v)
		}
		// cycle is [found .. s] reversed; flip to path order s -> ... -> found.
		for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
			cycle[i], cycle[j] = cycle[j], cycle[i]
		}
		if best == nil || len(cycle) < len(best) {
			best = cycle
		}
		if len(best) == 1 {
			break // self-loop, globally minimal
		}
	}
	return best
}

// Validate independently re-checks a certificate against the design it
// names. It re-derives the CDG and verifies the witness from scratch:
// a TopoOrder must be a permutation of every provisioned channel with
// every dependency pointing forward; a Cycle must consist of real
// dependency edges with a real closing edge. All failures wrap
// ErrWitness.
func Validate(cert *Certificate, designJSON []byte) error {
	if cert == nil {
		return fmt.Errorf("%w: nil certificate", ErrWitness)
	}
	if cert.CheckerVersion != Version {
		return fmt.Errorf("%w: checker version %d (running %d)", ErrWitness, cert.CheckerVersion, Version)
	}
	if got := sha256Hex(designJSON); got != cert.DesignSHA256 {
		return fmt.Errorf("%w: design digest %s does not match certificate %s", ErrWitness, got, cert.DesignSHA256)
	}
	g, err := rebuild(designJSON)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrWitness, err)
	}
	if cert.Channels != len(g.channels) || cert.Dependencies != g.edges {
		return fmt.Errorf("%w: graph has %d channels / %d dependencies, certificate says %d / %d",
			ErrWitness, len(g.channels), g.edges, cert.Channels, cert.Dependencies)
	}
	if cert.Acyclic {
		return g.validateOrder(cert.TopoOrder)
	}
	return g.validateCycle(cert.Cycle)
}

// validateOrder checks the witness is a permutation of all channels with
// every edge forward.
func (g *cdgraph) validateOrder(order []Channel) error {
	if len(order) != len(g.channels) {
		return fmt.Errorf("%w: topo order lists %d channels, graph has %d", ErrWitness, len(order), len(g.channels))
	}
	pos := make([]int, len(g.channels))
	for i := range pos {
		pos[i] = -1
	}
	for i, ch := range order {
		v, ok := g.index[ch]
		if !ok {
			return fmt.Errorf("%w: topo order names unknown channel %d:%d", ErrWitness, ch.Link, ch.VC)
		}
		if pos[v] >= 0 {
			return fmt.Errorf("%w: channel %d:%d appears twice in topo order", ErrWitness, ch.Link, ch.VC)
		}
		pos[v] = i
	}
	for v, out := range g.adj {
		for _, w := range out {
			if pos[v] >= pos[w] {
				return fmt.Errorf("%w: dependency %d:%d -> %d:%d points backward in topo order",
					ErrWitness, g.channels[v].Link, g.channels[v].VC, g.channels[w].Link, g.channels[w].VC)
			}
		}
	}
	return nil
}

// validateCycle checks every consecutive witness pair (and the closing
// pair) is a real dependency edge.
func (g *cdgraph) validateCycle(cycle []Channel) error {
	if len(cycle) == 0 {
		return fmt.Errorf("%w: cyclic certificate carries no cycle witness", ErrWitness)
	}
	ids := make([]int, len(cycle))
	for i, ch := range cycle {
		v, ok := g.index[ch]
		if !ok {
			return fmt.Errorf("%w: cycle names unknown channel %d:%d", ErrWitness, ch.Link, ch.VC)
		}
		ids[i] = v
	}
	for i := range ids {
		v, w := ids[i], ids[(i+1)%len(ids)]
		if !g.hasEdge(v, w) {
			return fmt.Errorf("%w: cycle step %d:%d -> %d:%d is not a dependency",
				ErrWitness, cycle[i].Link, cycle[i].VC, cycle[(i+1)%len(ids)].Link, cycle[(i+1)%len(ids)].VC)
		}
	}
	return nil
}

func (g *cdgraph) hasEdge(v, w int) bool {
	for _, x := range g.adj[v] {
		if x == w {
			return true
		}
	}
	return false
}

// intHeap is a minimal binary min-heap so the checker does not pull in
// container/heap's interface machinery.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
