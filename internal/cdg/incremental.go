package cdg

import (
	"fmt"
	"sort"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Reroute describes one flow's route change during a cycle break: the
// channel sequence it left and the one it now takes. It is the unit of
// localized CDG maintenance — Incremental.ApplyReroute turns it into edge
// insertions/deletions without rescanning the route table.
type Reroute struct {
	FlowID int
	Old    []topology.Channel
	New    []topology.Channel
}

// Incremental is a mutable channel dependency graph maintained across
// cycle breaks. Where Build reconstructs the whole graph from the route
// table, Incremental applies each break as a handful of edge updates and
// restricts cycle re-search to the strongly connected components those
// updates touched; untouched components keep their cached shortest cycle.
//
// Determinism contract: every query depends only on the current edge set,
// never on the order edges were inserted. Vertices are scanned and
// adjacency iterated in canonical (link, VC) channel order, matching the
// vertex numbering Build assigns, so Incremental and a fresh Build over
// the same topology/routes return the same cycles (see the differential
// tests in the core package).
//
// Bound invariant: lb[v] never exceeds the length of any cycle through v,
// so the smallest-cycle scan can skip a vertex whose bound already reaches
// the best cycle found. Probes raise the bounds; a relabel reroute (see
// relabels) keeps them, because no cycle gets shorter under it; any other
// reroute, and Restore, drops them all to 0.
type Incremental struct {
	top   *topology.Topology
	chans []topology.Channel       // vertex id → channel, in id-assignment order
	id    map[topology.Channel]int // channel → vertex id
	order []int                    // all vertex ids sorted by canonical channel order

	succ      [][]int          // adjacency, each list sorted by canonical channel order
	pred      [][]int          // reverse adjacency, same ordering
	edgeFlows map[[2]int][]int // edge → flow IDs creating it, ascending
	nEdges    int

	touched map[int]bool // vertices with edge changes since the last refresh
	cache   map[int]*sccEntry
	valid   bool

	lb     []int // lb[v] ≤ length of every cycle through v; 0 = unknown
	origin []int // for v ≥ base: the pre-base vertex v relabels
	base   int   // vertices below base existed when the bounds were last rebased

	scratch scratch // reusable dense buffers for Tarjan and BFS
}

// scratch holds the dense work arrays the refresh hot path reuses across
// iterations. Visited-state is epoch-stamped so a new search costs O(1) to
// start instead of O(V) to clear.
type scratch struct {
	epoch  int
	stamp  []int // stamp[v] == epoch ⇒ dist/parent valid for this search
	dist   []int
	parent []int
	queue  []int

	compEpoch int
	compStamp []int // compStamp[v] == compEpoch ⇒ v in current component

	index     []int // Tarjan
	low       []int
	onStack   []bool
	compOf    []int // non-trivial component of v, or -1
	tStack    []int
	callStack []tarjanFrame
	compBuf   []int   // members of every non-trivial SCC, back to back
	comps     [][]int // views into compBuf, one per component
}

type tarjanFrame struct {
	node int
	next int
}

// ensure sizes the per-vertex arrays for n vertices, growing them
// geometrically so a break that adds one duplicate VC does not reallocate.
func (s *scratch) ensure(n int) {
	if len(s.stamp) >= n {
		return
	}
	n = max(n, 2*len(s.stamp))
	s.stamp = grow(s.stamp, n)
	s.dist = grow(s.dist, n)
	s.parent = grow(s.parent, n)
	s.compStamp = grow(s.compStamp, n)
	s.index = grow(s.index, n)
	s.low = grow(s.low, n)
	s.onStack = grow(s.onStack, n)
	s.compOf = grow(s.compOf, n)
}

// grow returns s extended to length n, zero-filled past the old length.
func grow[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// sccEntry caches the analysis of one non-trivial SCC: its member set and
// the shortest cycle inside it. An entry survives a break untouched by it.
type sccEntry struct {
	members []int // sorted by canonical channel order; members[0] is the key
	cycle   []int // shortest cycle, rotated to its minimum channel
	start   int   // first member (channel order) on a shortest cycle
}

// BuildIncremental constructs an Incremental CDG from a topology and route
// table, validating routes exactly like Build.
func BuildIncremental(top *topology.Topology, table *route.Table) (*Incremental, error) {
	channels := top.Channels()
	m := &Incremental{
		top:       top,
		chans:     channels,
		id:        make(map[topology.Channel]int, len(channels)),
		edgeFlows: make(map[[2]int][]int),
		touched:   make(map[int]bool),
		cache:     make(map[int]*sccEntry),
		lb:        make([]int, len(channels)),
		origin:    make([]int, len(channels)),
		base:      len(channels),
	}
	for i, ch := range channels {
		m.id[ch] = i
	}
	m.order = make([]int, len(channels))
	for i := range m.order {
		m.order[i] = i // top.Channels() is already in canonical order
	}
	m.succ = make([][]int, len(channels))
	m.pred = make([][]int, len(channels))
	for _, r := range table.Routes() {
		for i, ch := range r.Channels {
			if _, ok := m.id[ch]; !ok {
				return nil, fmt.Errorf("cdg: flow %d hop %d uses unprovisioned channel %v",
					r.FlowID, i, ch)
			}
		}
		for i := 0; i+1 < len(r.Channels); i++ {
			m.addFlowEdge(m.id[r.Channels[i]], m.id[r.Channels[i+1]], r.FlowID)
		}
	}
	return m, nil
}

// less orders vertex ids by their channel's canonical (link, VC) order.
func (m *Incremental) less(a, b int) bool {
	ca, cb := m.chans[a], m.chans[b]
	if ca.Link != cb.Link {
		return ca.Link < cb.Link
	}
	return ca.VC < cb.VC
}

// vertex returns the id of ch, creating a fresh vertex when the channel is
// new (a duplicate added by a break).
func (m *Incremental) vertex(ch topology.Channel) int {
	if v, ok := m.id[ch]; ok {
		return v
	}
	v := len(m.chans)
	m.chans = append(m.chans, ch)
	m.id[ch] = v
	m.succ = append(m.succ, nil)
	m.pred = append(m.pred, nil)
	m.lb = append(m.lb, 0)
	m.origin = append(m.origin, v) // stands for no pre-base vertex until a relabel sets it
	pos := sort.Search(len(m.order), func(i int) bool { return m.less(v, m.order[i]) })
	m.order = append(m.order, 0)
	copy(m.order[pos+1:], m.order[pos:])
	m.order[pos] = v
	return v
}

// insertSorted inserts v into list keeping canonical channel order.
func (m *Incremental) insertSorted(list []int, v int) []int {
	pos := sort.Search(len(list), func(i int) bool { return m.less(v, list[i]) })
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = v
	return list
}

func removeValue(list []int, v int) []int {
	for i, x := range list {
		if x == v {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// addFlowEdge records that flowID creates the dependency from→to, adding
// the edge if it did not exist.
func (m *Incremental) addFlowEdge(from, to, flowID int) {
	key := [2]int{from, to}
	flows, existed := m.edgeFlows[key]
	idx := sort.SearchInts(flows, flowID)
	if idx == len(flows) || flows[idx] != flowID {
		flows = append(flows, 0)
		copy(flows[idx+1:], flows[idx:])
		flows[idx] = flowID
	}
	m.edgeFlows[key] = flows
	if !existed {
		m.succ[from] = m.insertSorted(m.succ[from], to)
		m.pred[to] = m.insertSorted(m.pred[to], from)
		m.nEdges++
		m.touched[from] = true
		m.touched[to] = true
		m.valid = false
	}
}

// dropFlowEdge removes flowID from the dependency from→to, deleting the
// edge when no flow creates it anymore.
func (m *Incremental) dropFlowEdge(from, to, flowID int) error {
	key := [2]int{from, to}
	flows, ok := m.edgeFlows[key]
	if !ok {
		return fmt.Errorf("cdg: reroute removes missing dependency %v→%v", m.chans[from], m.chans[to])
	}
	idx := sort.SearchInts(flows, flowID)
	if idx == len(flows) || flows[idx] != flowID {
		return fmt.Errorf("cdg: flow %d does not create dependency %v→%v", flowID, m.chans[from], m.chans[to])
	}
	flows = append(flows[:idx], flows[idx+1:]...)
	if len(flows) > 0 {
		m.edgeFlows[key] = flows
		return nil
	}
	delete(m.edgeFlows, key)
	m.succ[from] = removeValue(m.succ[from], to)
	m.pred[to] = removeValue(m.pred[to], from)
	m.nEdges--
	m.touched[from] = true
	m.touched[to] = true
	m.valid = false
	return nil
}

// ApplyReroute applies one flow's route change as localized edge updates.
// Consecutive-channel pairs common to the old and new routes are left
// untouched, so only the duplicated chain and its boundary dependencies
// invalidate cached SCC analysis.
//
// A relabel reroute keeps the cycle-length bounds; any other reroute (or
// one that fails part-way) drops them.
func (m *Incremental) ApplyReroute(r Reroute) error {
	relabel := m.relabels(r)
	if err := m.applyReroute(r); err != nil || !relabel {
		m.resetBounds()
		return err
	}
	for i, ch := range r.New {
		if v, ok := m.id[ch]; ok && v >= m.base && ch != r.Old[i] {
			o := m.originOf(m.id[r.Old[i]])
			m.origin[v] = o
			m.lb[v] = m.lb[o]
		}
	}
	return nil
}

// relabels reports whether r only relabels hops: the route keeps its
// length, and every hop it changes moves to a vertex created since the
// last rebase that stands for the same pre-base vertex as the hop it left.
// Mapping each such vertex to its origin then maps every edge of the
// current graph onto an edge of the graph at the last rebase, so every
// cycle through v maps to a closed walk of the same length through
// originOf(v). A closed walk through a vertex contains a cycle through it
// that is no longer, so the bounds taken at the rebase stay valid, and a
// new vertex inherits its origin's bound. This is exactly what a core
// cycle break does: each hop stays or moves to a fresh duplicate VC.
func (m *Incremental) relabels(r Reroute) bool {
	if len(r.Old) != len(r.New) {
		return false
	}
	for i, ch := range r.New {
		if ch == r.Old[i] {
			continue
		}
		old, ok := m.id[r.Old[i]]
		if !ok {
			return false
		}
		if v, ok := m.id[ch]; ok && (v < m.base || m.origin[v] != m.originOf(old)) {
			return false
		}
	}
	return true
}

// originOf maps a vertex to the pre-base vertex it relabels.
func (m *Incremental) originOf(v int) int {
	if v < m.base {
		return v
	}
	return m.origin[v]
}

// resetBounds forgets every cycle-length bound and rebases on the current
// graph.
func (m *Incremental) resetBounds() {
	clear(m.lb)
	m.base = len(m.chans)
}

// applyReroute performs the edge updates of ApplyReroute.
func (m *Incremental) applyReroute(r Reroute) error {
	for i, ch := range r.New {
		if !m.top.ValidChannel(ch) {
			return fmt.Errorf("cdg: reroute of flow %d hop %d uses unprovisioned channel %v", r.FlowID, i, ch)
		}
	}
	oldPairs := routePairs(r.Old)
	newPairs := routePairs(r.New)
	common := make(map[[2]topology.Channel]bool, len(oldPairs))
	inNew := make(map[[2]topology.Channel]bool, len(newPairs))
	for _, p := range newPairs {
		inNew[p] = true
	}
	for _, p := range oldPairs {
		if inNew[p] {
			common[p] = true
		}
	}
	for _, p := range oldPairs {
		if common[p] {
			continue
		}
		from, okF := m.id[p[0]]
		to, okT := m.id[p[1]]
		if !okF || !okT {
			return fmt.Errorf("cdg: reroute removes dependency %v→%v between unknown channels", p[0], p[1])
		}
		if err := m.dropFlowEdge(from, to, r.FlowID); err != nil {
			return err
		}
	}
	for _, p := range newPairs {
		if common[p] {
			continue
		}
		m.addFlowEdge(m.vertex(p[0]), m.vertex(p[1]), r.FlowID)
	}
	return nil
}

// routePairs lists the consecutive-channel pairs of a route. Routes never
// repeat a channel, so the pairs are distinct.
func routePairs(chs []topology.Channel) [][2]topology.Channel {
	if len(chs) < 2 {
		return nil
	}
	out := make([][2]topology.Channel, 0, len(chs)-1)
	for i := 0; i+1 < len(chs); i++ {
		out = append(out, [2]topology.Channel{chs[i], chs[i+1]})
	}
	return out
}

// CycleFlows returns the ascending union of the flows creating any
// dependency edge of cycle (consecutive channels, wrapping). Algorithm 2
// only ever needs these flows — a flow with no edge on the cycle
// contributes no cost row — so the break hot path uses this instead of
// scanning the whole route table per cycle.
func (m *Incremental) CycleFlows(cycle []topology.Channel) []int {
	n := len(cycle)
	if n == 0 {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	for i := 0; i < n; i++ {
		from, okF := m.id[cycle[i]]
		to, okT := m.id[cycle[(i+1)%n]]
		if !okF || !okT {
			continue
		}
		for _, f := range m.edgeFlows[[2]int{from, to}] {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Ints(out)
	return out
}

// NumChannels returns the number of CDG vertices.
func (m *Incremental) NumChannels() int { return len(m.chans) }

// NumDependencies returns the number of CDG edges.
func (m *Incremental) NumDependencies() int { return m.nEdges }

// Dependencies returns every edge with its creating flows, sorted by
// canonical (from, to) channel order — directly comparable with the
// immutable CDG's Dependencies for differential testing.
func (m *Incremental) Dependencies() []Dependency {
	keys := make([][2]int, 0, len(m.edgeFlows))
	for k := range m.edgeFlows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return m.less(keys[i][0], keys[j][0])
		}
		return m.less(keys[i][1], keys[j][1])
	})
	out := make([]Dependency, 0, len(keys))
	for _, k := range keys {
		out = append(out, Dependency{
			From:  m.chans[k[0]],
			To:    m.chans[k[1]],
			Flows: append([]int(nil), m.edgeFlows[k]...),
		})
	}
	return out
}

// refresh brings the SCC cache up to date: one Tarjan pass over the whole
// graph, then shortest-cycle recomputation only for components that gained
// or lost an edge since the last refresh. This is the incremental hot
// path: a break typically touches one small component, and every other
// component's cached cycle is reused.
//
// Refresh also rebases the cycle-length bounds: they hold for the current
// graph, so every vertex now stands for itself.
func (m *Incremental) refresh() {
	if m.valid {
		return
	}
	m.base = len(m.chans)
	comps := m.nontrivialSCCs()
	next := make(map[int]*sccEntry, len(comps))
	for _, comp := range comps {
		key := comp[0]
		old, ok := m.cache[key]
		same := ok && sameMembers(old.members, comp)
		if same && !m.anyTouched(comp) {
			next[key] = old
			continue
		}
		e := &sccEntry{}
		if same {
			e.members = old.members // entries are immutable, so this is safe to share
		} else {
			e.members = append([]int(nil), comp...)
		}
		e.cycle, e.start = m.shortestCycleIn(e.members)
		next[key] = e
	}
	m.cache = next
	clear(m.touched)
	m.valid = true
}

func (m *Incremental) anyTouched(comp []int) bool {
	for _, v := range comp {
		if m.touched[v] {
			return true
		}
	}
	return false
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nontrivialSCCs runs an iterative Tarjan pass and returns the components
// that can contain a cycle (size ≥ 2, or a single vertex with a
// self-loop), each sorted by canonical channel order. The components are
// views into scratch buffers, valid until the next call.
func (m *Incremental) nontrivialSCCs() [][]int {
	n := len(m.chans)
	sc := &m.scratch
	sc.ensure(n)
	index := sc.index[:n]
	low := sc.low[:n]
	onStack := sc.onStack[:n]
	compOf := sc.compOf[:n]
	for i := range index {
		index[i] = -1
		onStack[i] = false
		compOf[i] = -1
	}
	comps := sc.comps[:0]
	compBuf := sc.compBuf[:0]
	tStack := sc.tStack[:0]
	callStack := sc.callStack[:0]
	counter := 0
	for _, start := range m.order {
		if index[start] != -1 {
			continue
		}
		callStack = append(callStack[:0], tarjanFrame{node: start})
		index[start] = counter
		low[start] = counter
		counter++
		tStack = append(tStack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.node
			if f.next < len(m.succ[v]) {
				w := m.succ[v][f.next]
				f.next++
				if index[w] == -1 {
					index[w] = counter
					low[w] = counter
					counter++
					tStack = append(tStack, w)
					onStack[w] = true
					callStack = append(callStack, tarjanFrame{node: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1].node
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				k := len(tStack) - 1
				for tStack[k] != v {
					k--
				}
				comp := tStack[k:]
				tStack = tStack[:k]
				for _, w := range comp {
					onStack[w] = false
				}
				if len(comp) > 1 || m.hasEdge(v, v) {
					// Reserve the component's room in compBuf; it is
					// filled in canonical order below.
					for _, w := range comp {
						compOf[w] = len(comps)
					}
					lo := len(compBuf)
					compBuf = append(compBuf, comp...)
					comps = append(comps, compBuf[lo:lo:len(compBuf)])
				}
			}
		}
	}
	// One pass over the canonical vertex order sorts every component at
	// once (a counting sort by canonical rank).
	for _, v := range m.order {
		if c := compOf[v]; c >= 0 {
			comps[c] = append(comps[c], v)
		}
	}
	sc.comps, sc.compBuf, sc.tStack, sc.callStack = comps, compBuf, tStack, callStack
	return comps
}

func (m *Incremental) hasEdge(from, to int) bool {
	_, ok := m.edgeFlows[[2]int{from, to}]
	return ok
}

// shortestCycleIn finds the shortest cycle inside one SCC: members are
// scanned in canonical channel order, each probed with a BFS restricted to
// the component (a shortest cycle through a vertex never leaves its SCC).
// It mirrors graph.ShortestCycle's scan-and-prune semantics so the
// incremental and full-rebuild paths pick identical cycles.
//
// A member whose bound already reaches the best cycle is skipped: its
// probe could only come back empty. Each probe raises its start's bound,
// to the exact length when it finds a cycle and to its cutoff when not.
func (m *Incremental) shortestCycleIn(comp []int) (cycle []int, start int) {
	sc := &m.scratch
	sc.ensure(len(m.chans))
	sc.compEpoch++
	for _, v := range comp {
		sc.compStamp[v] = sc.compEpoch
	}
	var best []int
	bestStart := -1
	for _, s := range comp {
		if best != nil && m.lb[s] >= len(best) {
			continue // no cycle through s beats best (nor can a self-loop be there)
		}
		if m.hasEdge(s, s) {
			return []int{s}, s // nothing beats a self-loop
		}
		if len(best) == 2 {
			break // only a self-loop could beat a 2-cycle
		}
		if cyc := m.probe(s, len(best)); cyc != nil {
			best = cyc
			bestStart = s
			m.lb[s] = len(cyc)
		} else {
			m.lb[s] = max(m.lb[s], len(best))
		}
	}
	return m.rotateToMinChannel(best), bestStart
}

// probe runs one BFS for the shortest cycle through start, restricted to
// the component most recently stamped via scratch.compStamp. With bound
// > 0 only a cycle strictly shorter than bound is reported; bound <= 0 is
// unbounded. It is the single probe both selection policies share.
func (m *Incremental) probe(start, bound int) []int {
	sc := &m.scratch
	sc.epoch++
	sc.stamp[start] = sc.epoch
	sc.dist[start] = 0
	sc.parent[start] = -1
	queue := append(sc.queue[:0], start)
	defer func() { sc.queue = queue[:0] }()
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		if bound > 0 && sc.dist[u]+1 >= bound {
			continue
		}
		for _, v := range m.succ[u] {
			if sc.compStamp[v] != sc.compEpoch {
				continue
			}
			if v == start {
				if bound > 0 && sc.dist[u]+1 >= bound {
					return nil
				}
				out := make([]int, sc.dist[u]+1)
				for x, i := u, sc.dist[u]; x != -1; x, i = sc.parent[x], i-1 {
					out[i] = x
				}
				return out
			}
			if sc.stamp[v] != sc.epoch {
				sc.stamp[v] = sc.epoch
				sc.dist[v] = sc.dist[u] + 1
				sc.parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}

// rotateToMinChannel rotates a cycle to start at its canonically smallest
// channel, preserving orientation.
func (m *Incremental) rotateToMinChannel(cycle []int) []int {
	if len(cycle) == 0 {
		return nil
	}
	minIdx := 0
	for i, v := range cycle {
		if m.less(v, cycle[minIdx]) {
			minIdx = i
		}
	}
	if minIdx == 0 {
		return cycle
	}
	out := make([]int, 0, len(cycle))
	out = append(out, cycle[minIdx:]...)
	out = append(out, cycle[:minIdx]...)
	return out
}

// Acyclic reports whether the CDG currently has no cycles.
func (m *Incremental) Acyclic() bool {
	m.refresh()
	return len(m.cache) == 0
}

// SmallestCycle returns the shortest cycle in the whole CDG as an ordered
// channel list, or nil when the graph is acyclic. Among equal-length
// cycles the winner is the one found from the canonically smallest start
// channel, matching the full-rebuild search.
func (m *Incremental) SmallestCycle() []topology.Channel {
	m.refresh()
	var best *sccEntry
	for _, e := range m.cache {
		if e.cycle == nil {
			continue // defensive: nontrivial SCCs always have a cycle
		}
		if best == nil || len(e.cycle) < len(best.cycle) ||
			(len(e.cycle) == len(best.cycle) && m.less(e.start, best.start)) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	return m.toChannels(best.cycle)
}

// SmallestCycleThroughFirstCyclic mirrors the FirstFound selection policy:
// the shortest cycle through the canonically smallest channel that lies on
// any cycle, starting at that channel, or nil when acyclic.
func (m *Incremental) SmallestCycleThroughFirstCyclic() []topology.Channel {
	m.refresh()
	var entry *sccEntry
	for _, e := range m.cache {
		if entry == nil || m.less(e.members[0], entry.members[0]) {
			entry = e
		}
	}
	if entry == nil {
		return nil
	}
	return m.toChannels(m.cycleThrough(entry, entry.members[0]))
}

// cycleThrough runs the restricted BFS probe for the shortest cycle
// through one member of an SCC, returned starting at that vertex.
func (m *Incremental) cycleThrough(e *sccEntry, start int) []int {
	if m.hasEdge(start, start) {
		return []int{start}
	}
	sc := &m.scratch
	sc.ensure(len(m.chans))
	sc.compEpoch++
	for _, v := range e.members {
		sc.compStamp[v] = sc.compEpoch
	}
	return m.probe(start, 0)
}

func (m *Incremental) toChannels(ids []int) []topology.Channel {
	if ids == nil {
		return nil
	}
	out := make([]topology.Channel, len(ids))
	for i, v := range ids {
		out[i] = m.chans[v]
	}
	return out
}
