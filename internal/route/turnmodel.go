package route

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// TurnModel names a routing function for 2D grids. The four classic turn
// models (Glass & Ni's west-first, north-last, negative-first and Chiu's
// odd-even) restrict which 90° turns a packet may take so the channel
// dependency graph over *all* permitted transitions is acyclic by
// construction on a mesh — they are the standard deadlock-avoidance
// comparison point the removal method competes with. MinimalAdaptive
// permits every minimal turn and is deliberately deadlock-prone: it is
// the "arbitrary route set" input the paper's removal method exists for.
// DOR is the deterministic dimension-ordered baseline lifted into the
// RouteSet representation.
type TurnModel int

const (
	// DOR routes X fully, then Y — one deterministic path per flow.
	DOR TurnModel = iota
	// WestFirst takes all westward hops first: turns into west (N→W,
	// S→W) are prohibited.
	WestFirst
	// NorthLast goes north only as the final leg: turns out of north
	// (N→E, N→W) are prohibited.
	NorthLast
	// NegativeFirst takes negative-direction (west/south) hops first:
	// positive-to-negative turns (N→W, E→S) are prohibited.
	NegativeFirst
	// OddEven applies Chiu's parity rules: E→N and E→S turns are
	// prohibited in even columns, N→W and S→W turns in odd columns.
	OddEven
	// MinimalAdaptive permits every minimal turn (fully adaptive,
	// minimal). Its union CDG is cyclic on any mesh large enough to turn
	// in — the adversarial input for the removal algorithm.
	MinimalAdaptive
)

var turnModelNames = map[TurnModel]string{
	DOR:             "dor",
	WestFirst:       "west-first",
	NorthLast:       "north-last",
	NegativeFirst:   "negative-first",
	OddEven:         "odd-even",
	MinimalAdaptive: "min-adaptive",
}

// String returns the canonical spelling used by CLI flags and reports.
func (m TurnModel) String() string {
	if s, ok := turnModelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("TurnModel(%d)", int(m))
}

// TurnModelNames returns the canonical names in flag-help order.
func TurnModelNames() []string {
	return []string{"dor", "west-first", "north-last", "negative-first", "odd-even", "min-adaptive"}
}

// ParseTurnModel resolves a canonical name (as printed by String) to its
// TurnModel; the empty string means DOR.
func ParseTurnModel(s string) (TurnModel, error) {
	switch s {
	case "", "dor":
		return DOR, nil
	case "west-first":
		return WestFirst, nil
	case "north-last":
		return NorthLast, nil
	case "negative-first":
		return NegativeFirst, nil
	case "odd-even":
		return OddEven, nil
	case "min-adaptive", "minimal-adaptive":
		return MinimalAdaptive, nil
	}
	return 0, fmt.Errorf("route: unknown turn model %q (valid: dor, west-first, north-last, negative-first, odd-even, min-adaptive): %w",
		s, nocerr.ErrInvalidInput)
}

// dir is a grid hop direction.
type dir int

const (
	dirNone dir = iota // injection: the packet has not moved yet
	dirE               // +x
	dirW               // -x
	dirN               // +y
	dirS               // -y
)

// permittedTurn reports whether the model allows a hop in direction `to`
// after arriving in direction `from` at grid column x (odd-even's rules
// depend on the turning node's column parity). 180° turns are always
// prohibited; injections (from == dirNone) are always permitted.
func (m TurnModel) permittedTurn(from, to dir, x int) bool {
	if from == dirNone {
		return true
	}
	if (from == dirE && to == dirW) || (from == dirW && to == dirE) ||
		(from == dirN && to == dirS) || (from == dirS && to == dirN) {
		return false
	}
	switch m {
	case WestFirst:
		return !((from == dirN || from == dirS) && to == dirW)
	case NorthLast:
		return !(from == dirN && (to == dirE || to == dirW))
	case NegativeFirst:
		return !((from == dirN && to == dirW) || (from == dirE && to == dirS))
	case OddEven:
		if x%2 == 0 { // even column: no turn out of east
			return !(from == dirE && (to == dirN || to == dirS))
		}
		// odd column: no turn into west
		return !((from == dirN || from == dirS) && to == dirW)
	default: // DOR handled separately; MinimalAdaptive permits all 90° turns
		return true
	}
}

// GridSpec describes the 2D grid layout the turn-model generators route
// on: switch (x, y) has ID y*Cols+x with one core per switch (the
// internal/regular convention). Wrap marks a torus; turn models keep
// their acyclicity guarantee only on the unwrapped mesh — on a torus the
// wrap-around dependencies reintroduce cycles, which is exactly the kind
// of configuration the removal algorithm repairs.
type GridSpec struct {
	Cols, Rows int
	Wrap       bool
}

func (gs GridSpec) switchAt(x, y int) topology.SwitchID {
	return topology.SwitchID(y*gs.Cols + x)
}

func (gs GridSpec) coord(sw topology.SwitchID) (int, int) {
	return int(sw) % gs.Cols, int(sw) / gs.Cols
}

// dimDist is the hop distance along one dimension of size n, honoring
// wrap-around only where the generated grid actually has wrap links
// (wrapped and n > 2, matching internal/regular's constructors).
func dimDist(a, b, n int, wrap bool) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap && n > 2 && n-d < d {
		d = n - d
	}
	return d
}

// dist is the minimal hop distance between two switches on the grid.
func (gs GridSpec) dist(a, b topology.SwitchID) int {
	ax, ay := gs.coord(a)
	bx, by := gs.coord(b)
	return dimDist(ax, bx, gs.Cols, gs.Wrap) + dimDist(ay, by, gs.Rows, gs.Wrap)
}

// hopDir classifies the grid direction of the link a→b. Wrap links move
// in the direction of their wrap (0 → cols-1 is a west move).
func (gs GridSpec) hopDir(a, b topology.SwitchID) dir {
	ax, ay := gs.coord(a)
	bx, by := gs.coord(b)
	switch {
	case ay == by && bx == ax+1:
		return dirE
	case ay == by && bx == ax-1:
		return dirW
	case ax == bx && by == ay+1:
		return dirN
	case ax == bx && by == ay-1:
		return dirS
	case ay == by && ax == 0 && bx == gs.Cols-1:
		return dirW
	case ay == by && ax == gs.Cols-1 && bx == 0:
		return dirE
	case ax == bx && ay == 0 && by == gs.Rows-1:
		return dirS
	default: // ax == bx && ay == gs.Rows-1 && by == 0
		return dirN
	}
}

// MaxDefaultPaths is the per-flow candidate-path cap GridRoutes applies
// when the caller passes maxPaths <= 0. Minimal path counts explode
// combinatorially with distance (C(14,7) = 3432 between opposite corners
// of an 8×8 mesh); a small diverse set is what real path-set routers
// provision, and it keeps the flattened pseudo-flow table — and with it
// the CDG — small.
const MaxDefaultPaths = 4

// MaxPaths is the largest per-flow cap GridRoutes and RegenerateFlows
// accept. The cap is what bounds an enumeration: the corner flow of an
// n×n transpose mesh has C(2n−2, n−1) minimal paths, 155,117,520 at
// 16×16, and every path found is kept.
const MaxPaths = 64

// GridRoutes generates a RouteSet for every flow of g on the grid
// topology top under the given turn model: up to maxPaths minimal paths
// per flow, each respecting the model's turn prohibitions and avoiding
// faulted links, enumerated in deterministic link-ID order. When faults
// leave a flow of an adaptive model with no permitted minimal path, the
// generator falls back to the deterministic shortest path over all
// non-faulted links ignoring the turn restrictions — a fault-driven
// escape route whose extra CDG dependencies the removal algorithm is
// expected to repair. DOR takes no escape: a fault on a flow's XY path
// is a hard error, per the documented deterministic-baseline contract.
// A flow whose endpoints are disconnected even by the escape search is
// an error, and so is a maxPaths above MaxPaths.
func GridRoutes(top *topology.Topology, g *traffic.Graph, gs GridSpec, model TurnModel, maxPaths int) (*RouteSet, error) {
	e, err := newEnumerator(top, gs, model, maxPaths)
	if err != nil {
		return nil, err
	}
	set := NewRouteSet(g.NumFlows())
	for id := range set.paths {
		paths, err := e.flowPaths(g, id)
		if err != nil {
			return nil, err
		}
		if paths == nil {
			paths = [][]topology.Channel{nil} // local flow: cores share a switch
		}
		// flowPaths returns distinct paths, each capped at its length,
		// so the set keeps them without Add's copy and duplicate scan.
		set.paths[id] = paths
	}
	return set, nil
}

// enumerator is the path search one GridRoutes or RegenerateFlows call
// runs for each of its flows. It holds the grid's working links once,
// and the storage every flow's paths are carved from.
type enumerator struct {
	top   *topology.Topology
	gs    GridSpec
	model TurnModel
	max   int
	// Switch s's working (non-faulted) out-links are arcs[start[s]:
	// start[s+1]], in ascending link-ID order.
	start []int32
	arcs  []gridArc
	// x and y are each switch's grid coordinates.
	x, y []int32

	// The current flow's search: its destination's coordinates, the
	// walk's prefix, one slot per minimal hop, and the paths found.
	dx, dy int32
	prefix []topology.Channel
	found  [][]topology.Channel
	// dead[s*5+came] == stamp marks a walk state (switch, arrival
	// direction) of the current flow that reaches dst by no permitted
	// path. stamp moves on with every flow, so dead is never cleared.
	dead  []uint32
	stamp uint32
	// Every flow's paths, and its list of them, are carved from these.
	paths chunks[topology.Channel]
	lists chunks[[]topology.Channel]
}

// chunks hands out copies of slices, each capped at its length, from
// arrays it allocates as it runs out. Each new array is as large as
// everything handed out before it, so storage grows with what is kept,
// in a logarithmic number of allocations and without copying anything
// twice.
type chunks[T any] struct {
	free []T // the current array, filled up to its length
	kept int
}

// keep returns a capped copy of p, or nil for an empty p.
func (c *chunks[T]) keep(p []T) []T {
	if len(p) == 0 {
		return nil
	}
	if cap(c.free)-len(c.free) < len(p) {
		c.free = make([]T, 0, max(c.kept, len(p)))
	}
	c.kept += len(p)
	start := len(c.free)
	c.free = append(c.free, p...)
	return c.free[start:len(c.free):len(c.free)]
}

// gridArc is one working out-link: its ID, far end and grid direction.
type gridArc struct {
	link, to int32
	dir      dir
}

// newEnumerator checks the grid shape and the path cap, and indexes the
// topology's working links by source switch.
func newEnumerator(top *topology.Topology, gs GridSpec, model TurnModel, maxPaths int) (*enumerator, error) {
	n := top.NumSwitches()
	if gs.Cols < 1 || gs.Rows < 1 || gs.Cols*gs.Rows != n {
		return nil, fmt.Errorf("route: grid %dx%d does not match topology with %d switches: %w",
			gs.Cols, gs.Rows, n, nocerr.ErrInvalidInput)
	}
	if maxPaths > MaxPaths {
		return nil, fmt.Errorf("route: max paths %d exceeds %d: %w", maxPaths, MaxPaths, nocerr.ErrInvalidInput)
	}
	if maxPaths <= 0 {
		maxPaths = MaxDefaultPaths
	}
	e := &enumerator{
		top: top, gs: gs, model: model, max: maxPaths,
		start: make([]int32, n+1),
		x:     make([]int32, n),
		y:     make([]int32, n),
		dead:  make([]uint32, 5*n),
	}
	for sw := 0; sw < n; sw++ {
		x, y := gs.coord(topology.SwitchID(sw))
		e.x[sw], e.y[sw] = int32(x), int32(y)
	}
	// A counting sort by source switch: scanning links in ID order
	// leaves each switch's arcs in ascending link-ID order.
	m := top.NumLinks()
	working := 0
	for id := 0; id < m; id++ {
		if l := top.Link(topology.LinkID(id)); !top.Faulted(l.ID) {
			e.start[l.From+1]++
			working++
		}
	}
	for s := 0; s < n; s++ {
		e.start[s+1] += e.start[s]
	}
	e.arcs = make([]gridArc, working)
	next := make([]int32, n)
	copy(next, e.start[:n])
	for id := 0; id < m; id++ {
		if l := top.Link(topology.LinkID(id)); !top.Faulted(l.ID) {
			e.arcs[next[l.From]] = gridArc{link: int32(id), to: int32(l.To), dir: gs.hopDir(l.From, l.To)}
			next[l.From]++
		}
	}
	return e, nil
}

// out returns switch sw's working arcs.
func (e *enumerator) out(sw int32) []gridArc {
	return e.arcs[e.start[sw]:e.start[sw+1]]
}

// distToDst is the minimal hop distance from sw to the current flow's
// destination.
func (e *enumerator) distToDst(sw int32) int {
	return dimDist(int(e.x[sw]), int(e.dx), e.gs.Cols, e.gs.Wrap) + dimDist(int(e.y[sw]), int(e.dy), e.gs.Rows, e.gs.Wrap)
}

// flowPaths computes one flow's candidate paths under the shared
// GridRoutes semantics: up to maxPaths minimal turn-model paths, BFS
// escape when faults exhaust them, DOR hard-failing on faults. A nil
// result with nil error means a local flow (src and dst share a switch);
// otherwise at least one path is returned.
func (e *enumerator) flowPaths(g *traffic.Graph, flowID int) ([][]topology.Channel, error) {
	f := g.Flow(flowID)
	src, ok := e.top.SwitchOf(int(f.Src))
	if !ok {
		return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Src, f.ID, nocerr.ErrInvalidInput)
	}
	dst, ok := e.top.SwitchOf(int(f.Dst))
	if !ok {
		return nil, fmt.Errorf("route: core %d (flow %d) not attached: %w", f.Dst, f.ID, nocerr.ErrInvalidInput)
	}
	if src == dst {
		return nil, nil
	}
	var paths [][]topology.Channel
	if e.model == DOR {
		// No escape for DOR: the documented contract is that the
		// deterministic baseline cannot route around a fault, so a
		// fault on an XY path is a hard error, not a silent detour.
		p, err := DORPath(e.top, e.gs, src, dst)
		if err != nil {
			return nil, fmt.Errorf("route: flow %d (%d→%d) unroutable under %s: %w", f.ID, src, dst, e.model, err)
		}
		paths = [][]topology.Channel{p}
	} else {
		paths = e.enumerateMinimal(src, dst)
	}
	if len(paths) == 0 {
		// Fault escape: deterministic shortest path over every working
		// link, turn restrictions waived.
		p, err := e.bfsPath(src, dst)
		if err != nil {
			return nil, fmt.Errorf("route: flow %d (%d→%d) unroutable under %s: %w", f.ID, src, dst, e.model, err)
		}
		paths = [][]topology.Channel{p}
	}
	return paths, nil
}

// RegenerateFlows recomputes candidate paths for just the given flows —
// the incremental half of GridRoutes, used by online reconfiguration to
// reroute only the flows a fresh link fault displaced. Semantics per
// flow are identical to GridRoutes (same enumeration order, same BFS
// escape, same DOR hard-error contract, same maxPaths bound), so a full
// regeneration and a per-flow regeneration of every flow agree
// path-for-path. The result maps flow ID → candidate paths; a local flow
// maps to nil. Unknown flow IDs are an error.
func RegenerateFlows(top *topology.Topology, g *traffic.Graph, gs GridSpec, model TurnModel, maxPaths int, flows []int) (map[int][][]topology.Channel, error) {
	e, err := newEnumerator(top, gs, model, maxPaths)
	if err != nil {
		return nil, err
	}
	out := make(map[int][][]topology.Channel, len(flows))
	for _, id := range flows {
		if id < 0 || id >= g.NumFlows() {
			return nil, fmt.Errorf("route: unknown flow %d: %w", id, nocerr.ErrInvalidInput)
		}
		paths, err := e.flowPaths(g, id)
		if err != nil {
			return nil, err
		}
		out[id] = paths
	}
	return out, nil
}

// DORPath is the dimension-ordered walk from src to dst on VC 0: X then
// Y, each dimension in its minimal direction, crossing a wrap-around link
// where the grid has them and that is shorter (ties go positive). It
// fails if any hop's link is missing or faulted — deterministic DOR
// cannot route around a fault. It is the one DOR walker: GridRoutes'
// DOR model and regular.DORRoutes both take their paths from it.
func DORPath(top *topology.Topology, gs GridSpec, src, dst topology.SwitchID) ([]topology.Channel, error) {
	var channels []topology.Channel
	cx, cy := gs.coord(src)
	dx, dy := gs.coord(dst)
	step := func(cur, target, n int) int {
		if !gs.Wrap || n <= 2 {
			if target > cur {
				return 1
			}
			return -1
		}
		fwd := ((target - cur) + n) % n
		if fwd <= n-fwd {
			return 1
		}
		return -1
	}
	hop := func(a, b topology.SwitchID) error {
		id, ok := top.FindLink(a, b)
		if !ok {
			return fmt.Errorf("route: missing link %d→%d: %w", a, b, nocerr.ErrInvalidInput)
		}
		if top.Faulted(id) {
			return fmt.Errorf("route: DOR path crosses faulted link %d: %w", id, nocerr.ErrInvalidInput)
		}
		channels = append(channels, topology.Chan(id, 0))
		return nil
	}
	for cx != dx {
		next := (cx + step(cx, dx, gs.Cols) + gs.Cols) % gs.Cols
		if err := hop(gs.switchAt(cx, cy), gs.switchAt(next, cy)); err != nil {
			return nil, err
		}
		cx = next
	}
	for cy != dy {
		next := (cy + step(cy, dy, gs.Rows) + gs.Rows) % gs.Rows
		if err := hop(gs.switchAt(cx, cy), gs.switchAt(cx, next)); err != nil {
			return nil, err
		}
		cy = next
	}
	return channels, nil
}

// enumerateMinimal DFS-enumerates up to the cap's number of minimal
// paths src→dst whose every turn the model permits and whose every link
// is working. Every hop strictly decreases the distance to dst, so the
// search space is a DAG and terminates; candidate hops are explored in
// ascending link-ID order, making the enumeration (and its truncation) a
// pure function of the inputs.
//
// The walk writes one prefix buffer of the flow's minimal hop count and
// copies a path out only when it reaches dst. Which paths complete a
// prefix depends only on the state it ends in, its switch and arrival
// direction, so a state that completed none is marked dead and never
// searched again for this flow: skipping it drops no path and moves none.
func (e *enumerator) enumerateMinimal(src, dst topology.SwitchID) [][]topology.Channel {
	e.dx, e.dy = e.x[dst], e.y[dst]
	hops := e.gs.dist(src, dst)
	if cap(e.prefix) < hops {
		e.prefix = make([]topology.Channel, hops)
	}
	e.prefix = e.prefix[:hops]
	e.stamp++
	e.found = e.found[:0]
	e.walk(int32(src), dirNone, 0)
	return e.lists.keep(e.found)
}

// walk extends a prefix of depth hops that ends at switch cur, entered
// in direction came.
func (e *enumerator) walk(cur int32, came dir, depth int) {
	if depth == len(e.prefix) { // cur is dst: minimal hops end nowhere else
		e.found = append(e.found, e.paths.keep(e.prefix))
		return
	}
	state := int(cur)*5 + int(came)
	if e.dead[state] == e.stamp {
		return
	}
	found := len(e.found)
	left := len(e.prefix) - depth - 1
	for _, a := range e.out(cur) {
		if e.distToDst(a.to) != left {
			continue
		}
		if e.model != MinimalAdaptive && !e.model.permittedTurn(came, a.dir, int(e.x[cur])) {
			continue
		}
		e.prefix[depth] = topology.Chan(topology.LinkID(a.link), 0)
		e.walk(a.to, a.dir, depth+1)
		if len(e.found) >= e.max {
			return
		}
	}
	if len(e.found) == found {
		e.dead[state] = e.stamp
	}
}

// bfsPath is the deterministic fewest-hops path over non-faulted links,
// exploring neighbors in ascending link-ID order.
func (e *enumerator) bfsPath(src, dst topology.SwitchID) ([]topology.Channel, error) {
	type hop struct {
		prev topology.SwitchID
		link topology.LinkID
	}
	parent := make(map[topology.SwitchID]hop)
	parent[src] = hop{prev: src}
	queue := []topology.SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		for _, a := range e.out(int32(cur)) {
			next := topology.SwitchID(a.to)
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = hop{prev: cur, link: topology.LinkID(a.link)}
			queue = append(queue, next)
		}
	}
	if _, ok := parent[dst]; !ok {
		return nil, fmt.Errorf("route: no working path %d→%d: %w", src, dst, nocerr.ErrInvalidInput)
	}
	var rev []topology.Channel
	for cur := dst; cur != src; cur = parent[cur].prev {
		rev = append(rev, topology.Chan(parent[cur].link, 0))
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}
