package cdg

import (
	"slices"

	"github.com/nocdr/nocdr/internal/topology"
)

// Snapshot is a point-in-time copy of an Incremental CDG's complete
// mutable state. It exists for the online-reconfiguration commit
// protocol: a reroute batch plus a warm-start removal replay mutate the
// live graph in place, and when the replay fails mid-way (ErrVCLimit, a
// cancellation, an inconsistent reroute) the graph must come back
// byte-identical instead of staying half-mutated. Take a Snapshot before
// the batch, Restore it on any error, drop it on commit.
//
// A Snapshot is independent of later mutations (every slice is
// deep-copied, the component member lists too; the cycles, never
// modified, are shared) and is reusable: Restore copies out of the
// snapshot rather than aliasing it, so the same Snapshot can rescue
// several failed attempts.
type Snapshot struct {
	top    *topology.Topology
	chans  []topology.Channel
	id     [][]int
	order  []int
	succ   [][]int
	flows  [][][]int
	nEdges int
	nSelf  int
	sccs   []sccEntry
	valid  bool
}

// Snapshot captures the graph's current state. Cost is O(V + E) — far
// below one removal iteration's Tarjan pass, so snapshotting per
// reconfiguration event is cheap.
func (m *Incremental) Snapshot() *Snapshot {
	return &Snapshot{
		top:    m.top,
		chans:  slices.Clone(m.chans),
		id:     copyLists(m.id),
		order:  slices.Clone(m.order),
		succ:   copyLists(m.succ),
		flows:  copyFlows(m.flows),
		nEdges: m.nEdges,
		nSelf:  m.nSelf,
		sccs:   copySCCs(m.sccs),
		valid:  m.valid,
	}
}

// Restore rewinds the graph to the snapshotted state, including the
// topology binding Rebind may have changed since. The scratch buffers are
// left alone — they carry no graph state, only epoch-stamped work arrays.
// The cycle-length bounds are dropped: they may describe a graph the
// restored one has cycles shorter than.
func (m *Incremental) Restore(s *Snapshot) {
	m.top = s.top
	m.chans = append(m.chans[:0], s.chans...)
	m.id = copyLists(s.id)
	m.order = append(m.order[:0], s.order...)
	m.succ = copyLists(s.succ)
	m.flows = copyFlows(s.flows)
	m.nEdges = s.nEdges
	m.nSelf = s.nSelf
	m.sccs = copySCCs(s.sccs)
	m.valid = s.valid
	m.lb = make([]int, len(m.chans))
	m.origin = make([]int, len(m.chans))
	m.base = len(m.chans)
}

// Rebind points the graph's channel validation at a different topology —
// typically a clone of the original that has just had a link faulted and
// will receive the replay's new VCs. Reroutes are validated against the
// bound topology, so a reconfiguration rebinds to its working clone up
// front and relies on Restore to rebind back on failure. The clone must
// be structurally identical to the original (same switch/link IDs); only
// fault masks and VC counts may diverge.
func (m *Incremental) Rebind(top *topology.Topology) {
	m.top = top
}

// copyLists deep-copies a slice of lists.
func copyLists(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i, list := range src {
		out[i] = slices.Clone(list)
	}
	return out
}

// copyFlows deep-copies the per-edge flow lists.
func copyFlows(src [][][]int) [][][]int {
	out := make([][][]int, len(src))
	for v, lists := range src {
		out[v] = copyLists(lists)
	}
	return out
}

// copySCCs copies a component list with its member lists, which in the
// graph are views into a buffer the next refresh overwrites. Cycles are
// never modified, so the copy shares them.
func copySCCs(src []sccEntry) []sccEntry {
	out := make([]sccEntry, len(src))
	for i, e := range src {
		e.members = slices.Clone(e.members)
		out[i] = e
	}
	return out
}
