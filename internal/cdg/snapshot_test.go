package cdg

import (
	"reflect"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// fingerprint captures everything observable about the graph's state for
// byte-level before/after comparison.
func fingerprint(t *testing.T, m *Incremental) ([]Dependency, []topology.Channel, int, int) {
	t.Helper()
	return m.Dependencies(), m.SmallestCycle(), m.NumChannels(), m.NumDependencies()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	top, tab := paperExample(t)
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	wantDeps, wantCycle, wantChans, wantEdges := fingerprint(t, m)

	snap := m.Snapshot()

	// Mutate heavily: move flow 0 off the cycle onto a duplicated channel
	// chain (new vertices), then drop flow 1 entirely.
	if _, err := top.AddVC(1); err != nil {
		t.Fatal(err)
	}
	reroutes := []Reroute{
		{FlowID: 0,
			Old: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0), topology.Chan(2, 0)},
			New: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 1), topology.Chan(2, 0)}},
		{FlowID: 1,
			Old: []topology.Channel{topology.Chan(2, 0), topology.Chan(3, 0)},
			New: nil},
	}
	for _, r := range reroutes {
		if err := m.ApplyReroute(r); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumChannels() == wantChans && m.NumDependencies() == wantEdges {
		t.Fatal("mutations did not change the graph; test is vacuous")
	}
	// Force a refresh so the component list diverges too.
	m.Acyclic()

	m.Restore(snap)
	gotDeps, gotCycle, gotChans, gotEdges := fingerprint(t, m)
	if !reflect.DeepEqual(gotDeps, wantDeps) {
		t.Errorf("Dependencies after restore = %v, want %v", gotDeps, wantDeps)
	}
	if !reflect.DeepEqual(gotCycle, wantCycle) {
		t.Errorf("SmallestCycle after restore = %v, want %v", gotCycle, wantCycle)
	}
	if gotChans != wantChans || gotEdges != wantEdges {
		t.Errorf("size after restore = (%d ch, %d dep), want (%d, %d)",
			gotChans, gotEdges, wantChans, wantEdges)
	}
}

// TestSnapshotReusableAcrossFailures pins the documented contract that
// one Snapshot can rescue several failed attempts: restoring, mutating
// again, and restoring again still lands on the original state.
func TestSnapshotReusableAcrossFailures(t *testing.T) {
	top, tab := paperExample(t)
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	wantDeps := m.Dependencies()
	snap := m.Snapshot()
	mutate := func() {
		if err := m.ApplyReroute(Reroute{FlowID: 2,
			Old: []topology.Channel{topology.Chan(3, 0), topology.Chan(0, 0)},
			New: nil}); err != nil {
			t.Fatal(err)
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		mutate()
		m.Restore(snap)
		if got := m.Dependencies(); !reflect.DeepEqual(got, wantDeps) {
			t.Fatalf("attempt %d: Dependencies after restore = %v, want %v", attempt, got, wantDeps)
		}
	}
}

// TestSnapshotIndependentOfLaterMutations guards against aliasing bugs:
// in-place growth of adjacency lists after the snapshot must not leak
// into it.
func TestSnapshotIndependentOfLaterMutations(t *testing.T) {
	top, tab := paperExample(t)
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	wantDeps := m.Dependencies()
	snap := m.Snapshot()
	// Add edges that insert into existing adjacency lists.
	if err := m.ApplyReroute(Reroute{FlowID: 3,
		Old: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)},
		New: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0), topology.Chan(2, 0), topology.Chan(3, 0)}}); err != nil {
		t.Fatal(err)
	}
	m.Restore(snap)
	if got := m.Dependencies(); !reflect.DeepEqual(got, wantDeps) {
		t.Errorf("snapshot was mutated through aliasing: %v, want %v", got, wantDeps)
	}
}

// TestSnapshotCopiesComponentMembers guards the component list: its
// member lists are views into a buffer each refresh overwrites, so a
// snapshot that kept the views would restore the members of whatever
// graph was refreshed last. Flow 4 first joins two 3-cycles into one
// component, which sizes the buffer for six members; the snapshot holds
// the two 3-cycles, and the refresh after it holds only the second one,
// written over the first one's slots.
func TestSnapshotCopiesComponentMembers(t *testing.T) {
	top := linkRing(6)
	tab := route.NewTable(5)
	tab.Set(0, vc0(0, 1, 2))
	tab.Set(1, vc0(2, 0))
	tab.Set(2, vc0(3, 4, 5))
	tab.Set(3, vc0(5, 3))
	tab.Set(4, vc0(2, 3, 4, 5, 0))
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	members := func() [][]int {
		var out [][]int
		for _, e := range m.sccs {
			out = append(out, slices.Clone(e.members))
		}
		return out
	}
	m.Acyclic()
	if got := members(); len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("components %v, want one of six channels", got)
	}
	if err := m.ApplyReroute(Reroute{FlowID: 4, Old: vc0(2, 3, 4, 5, 0)}); err != nil {
		t.Fatal(err)
	}
	wantCycle, wantFirst := m.SmallestCycle(), m.SmallestCycleThroughFirstCyclic()
	wantMembers := members()
	if len(wantMembers) != 2 {
		t.Fatalf("components %v, want the two 3-cycles", wantMembers)
	}

	snap := m.Snapshot()
	if err := m.ApplyReroute(Reroute{FlowID: 1, Old: vc0(2, 0)}); err != nil {
		t.Fatal(err)
	}
	if got := m.SmallestCycle(); !reflect.DeepEqual(got, vc0(3, 4, 5)) {
		t.Fatalf("SmallestCycle after the reroute = %v, want the second 3-cycle", got)
	}

	m.Restore(snap)
	if got := members(); !reflect.DeepEqual(got, wantMembers) {
		t.Errorf("component members after restore = %v, want %v", got, wantMembers)
	}
	if got := m.SmallestCycle(); !reflect.DeepEqual(got, wantCycle) {
		t.Errorf("SmallestCycle after restore = %v, want %v", got, wantCycle)
	}
	if got := m.SmallestCycleThroughFirstCyclic(); !reflect.DeepEqual(got, wantFirst) {
		t.Errorf("SmallestCycleThroughFirstCyclic after restore = %v, want %v", got, wantFirst)
	}
}

func TestRebindRestores(t *testing.T) {
	top, tab := paperExample(t)
	m, err := BuildIncremental(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	clone := top.Clone()
	if _, err := clone.AddVC(0); err != nil {
		t.Fatal(err)
	}
	m.Rebind(clone)
	// A reroute onto the clone-only channel validates against the clone.
	if err := m.ApplyReroute(Reroute{FlowID: 3,
		Old: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)},
		New: []topology.Channel{topology.Chan(0, 1), topology.Chan(1, 0)}}); err != nil {
		t.Fatalf("reroute onto rebound topology's channel: %v", err)
	}
	m.Restore(snap)
	// After restore the original topology is bound again, so the same
	// reroute must fail validation.
	if err := m.ApplyReroute(Reroute{FlowID: 3,
		Old: []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0)},
		New: []topology.Channel{topology.Chan(0, 1), topology.Chan(1, 0)}}); err == nil {
		t.Fatal("reroute onto unprovisioned channel succeeded after Restore; topology binding not rewound")
	}
}
