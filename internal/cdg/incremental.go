package cdg

import (
	"fmt"
	"slices"
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
// cycle breaks. Instead of rebuilding the graph from the route table,
// it applies each break as a handful of edge updates and restricts cycle
// re-search to the strongly connected components those updates touched;
// untouched components keep their cached shortest cycle. The immutable
// CDG is a read-only view of a freshly built one.
//
// Determinism contract: every query depends only on the current edge set,
// never on the order edges were inserted. Vertices are scanned and
// adjacency iterated in canonical (link, VC) channel order, the vertex
// numbering a fresh build assigns, so a maintained Incremental and a
// fresh Build over the same topology/routes return the same cycles (see
// the differential tests in the core package).
//
// Bound invariant: lb[v] never exceeds the length of any cycle through v,
// so the smallest-cycle scan can skip a vertex whose bound already reaches
// the best cycle found. Probes raise the bounds; a relabel reroute (see
// relabels) keeps them, because no cycle gets shorter under it; any other
// reroute, and Restore, drops them all to 0.
type Incremental struct {
	top   *topology.Topology
	chans []topology.Channel // vertex id → channel, in id-assignment order
	id    [][]int            // id[link][vc] → vertex id, -1 when absent
	order []int              // all vertex ids sorted by canonical channel order

	succ   [][]int   // adjacency, each list sorted by canonical channel order
	flows  [][][]int // flows[v][k]: flow IDs creating v→succ[v][k], ascending
	nEdges int

	touched []bool // touched[v]: v gained or lost an edge since the last refresh
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
		top:     top,
		chans:   channels,
		id:      make([][]int, top.NumLinks()),
		order:   make([]int, len(channels)),
		succ:    make([][]int, len(channels)),
		flows:   make([][][]int, len(channels)),
		touched: make([]bool, len(channels)),
		cache:   make(map[int]*sccEntry),
		lb:      make([]int, len(channels)),
		origin:  make([]int, len(channels)),
		base:    len(channels),
	}
	for i := range m.order {
		m.order[i] = i // top.Channels() is already in canonical order
	}
	// Channels come link by link, VC by VC, so each link's table is a
	// stretch of one array; capping it makes a later duplicate VC copy
	// the stretch instead of writing into the next link's.
	ids, lo := slices.Clone(m.order), 0
	for l := range m.id {
		n := top.Link(topology.LinkID(l)).VCs
		m.id[l] = ids[lo : lo+n : lo+n]
		lo += n
	}
	for _, r := range table.Routes() {
		for i, ch := range r.Channels {
			if m.lookup(ch) < 0 {
				return nil, fmt.Errorf("cdg: flow %d hop %d uses unprovisioned channel %v",
					r.FlowID, i, ch)
			}
		}
		for i := 0; i+1 < len(r.Channels); i++ {
			m.addFlowEdge(m.lookup(r.Channels[i]), m.lookup(r.Channels[i+1]), r.FlowID)
		}
	}
	return m, nil
}

// lookup returns the vertex id of ch, or -1 when the graph has none.
func (m *Incremental) lookup(ch topology.Channel) int {
	if ch.Link < 0 || int(ch.Link) >= len(m.id) || ch.VC < 0 || ch.VC >= len(m.id[ch.Link]) {
		return -1
	}
	return m.id[ch.Link][ch.VC]
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
	if v := m.lookup(ch); v >= 0 {
		return v
	}
	v := len(m.chans)
	m.chans = append(m.chans, ch)
	for int(ch.Link) >= len(m.id) {
		m.id = append(m.id, nil)
	}
	for ch.VC >= len(m.id[ch.Link]) {
		m.id[ch.Link] = append(m.id[ch.Link], -1)
	}
	m.id[ch.Link][ch.VC] = v
	m.succ = append(m.succ, nil)
	m.flows = append(m.flows, nil)
	m.touched = append(m.touched, false)
	m.lb = append(m.lb, 0)
	m.origin = append(m.origin, v) // stands for no pre-base vertex until a relabel sets it
	pos := sort.Search(len(m.order), func(i int) bool { return m.less(v, m.order[i]) })
	m.order = append(m.order, 0)
	copy(m.order[pos+1:], m.order[pos:])
	m.order[pos] = v
	return v
}

// edge returns the position of to in succ[from], or -1 when there is no
// edge from→to. Adjacency lists hold a few entries, so a scan beats any
// index.
func (m *Incremental) edge(from, to int) int {
	return slices.Index(m.succ[from], to)
}

func (m *Incremental) hasEdge(from, to int) bool { return m.edge(from, to) >= 0 }

// addFlowEdge records that flowID creates the dependency from→to, adding
// the edge if it did not exist.
func (m *Incremental) addFlowEdge(from, to, flowID int) {
	if k := m.edge(from, to); k >= 0 {
		flows := m.flows[from][k]
		if idx, found := slices.BinarySearch(flows, flowID); !found {
			m.flows[from][k] = slices.Insert(flows, idx, flowID)
		}
		return
	}
	succ := m.succ[from]
	pos := sort.Search(len(succ), func(i int) bool { return m.less(to, succ[i]) })
	m.succ[from] = slices.Insert(succ, pos, to)
	m.flows[from] = slices.Insert(m.flows[from], pos, []int{flowID})
	m.nEdges++
	m.touched[from] = true
	m.touched[to] = true
	m.valid = false
}

// dropFlowEdge removes flowID from the dependency from→to, deleting the
// edge when no flow creates it anymore.
func (m *Incremental) dropFlowEdge(from, to, flowID int) error {
	k := m.edge(from, to)
	if k < 0 {
		return fmt.Errorf("cdg: reroute removes missing dependency %v→%v", m.chans[from], m.chans[to])
	}
	flows := m.flows[from][k]
	idx, found := slices.BinarySearch(flows, flowID)
	if !found {
		return fmt.Errorf("cdg: flow %d does not create dependency %v→%v", flowID, m.chans[from], m.chans[to])
	}
	if len(flows) > 1 {
		m.flows[from][k] = slices.Delete(flows, idx, idx+1)
		return nil
	}
	m.succ[from] = slices.Delete(m.succ[from], k, k+1)
	m.flows[from] = slices.Delete(m.flows[from], k, k+1)
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
		if v := m.lookup(ch); v >= m.base && ch != r.Old[i] {
			o := m.originOf(m.lookup(r.Old[i]))
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
		old := m.lookup(r.Old[i])
		if old < 0 {
			return false
		}
		if v := m.lookup(ch); v >= 0 && (v < m.base || m.origin[v] != m.originOf(old)) {
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
	for i := 0; i+1 < len(r.Old); i++ {
		a, b := r.Old[i], r.Old[i+1]
		if hasPair(r.New, a, b) {
			continue
		}
		from, to := m.lookup(a), m.lookup(b)
		if from < 0 || to < 0 {
			return fmt.Errorf("cdg: reroute removes dependency %v→%v between unknown channels", a, b)
		}
		if err := m.dropFlowEdge(from, to, r.FlowID); err != nil {
			return err
		}
	}
	for i := 0; i+1 < len(r.New); i++ {
		a, b := r.New[i], r.New[i+1]
		if !hasPair(r.Old, a, b) {
			m.addFlowEdge(m.vertex(a), m.vertex(b), r.FlowID)
		}
	}
	return nil
}

// hasPair reports whether b directly follows a somewhere in route chs.
// Routes are short, so the scan is cheaper than indexing their pairs.
func hasPair(chs []topology.Channel, a, b topology.Channel) bool {
	for i := 0; i+1 < len(chs); i++ {
		if chs[i] == a && chs[i+1] == b {
			return true
		}
	}
	return false
}

// CycleFlows returns the ascending union of the flows creating any
// dependency edge of cycle (consecutive channels, wrapping). Algorithm 2
// only ever needs these flows — a flow with no edge on the cycle
// contributes no cost row — so the break hot path uses this instead of
// scanning the whole route table per cycle.
func (m *Incremental) CycleFlows(cycle []topology.Channel) []int {
	var out []int
	for i, ch := range cycle {
		from, to := m.lookup(ch), m.lookup(cycle[(i+1)%len(cycle)])
		if from < 0 || to < 0 {
			continue
		}
		if k := m.edge(from, to); k >= 0 {
			out = append(out, m.flows[from][k]...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NumChannels returns the number of CDG vertices.
func (m *Incremental) NumChannels() int { return len(m.chans) }

// NumDependencies returns the number of CDG edges.
func (m *Incremental) NumDependencies() int { return m.nEdges }

// Dependencies returns every edge with its creating flows, sorted by
// canonical (from, to) channel order — directly comparable with a fresh
// Build's Dependencies for differential testing.
func (m *Incremental) Dependencies() []Dependency {
	out := make([]Dependency, 0, m.nEdges)
	for _, v := range m.order {
		for k, w := range m.succ[v] {
			out = append(out, Dependency{
				From:  m.chans[v],
				To:    m.chans[w],
				Flows: append([]int(nil), m.flows[v][k]...),
			})
		}
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

// shortestCycleIn finds the shortest cycle inside one SCC: members are
// scanned in canonical channel order, each probed with a BFS restricted to
// the component (a shortest cycle through a vertex never leaves its SCC).
// Once it holds a 2-cycle it stops, so a self-dependency on a later
// member of the same component goes unreported; removal rejects any
// self-dependency when it reaches one, whichever cycle comes first.
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
// channel, so a maintained graph picks the cycle a fresh Build would.
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
