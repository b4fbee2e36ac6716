package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// randomSetup builds a random strongly-ish connected topology with one
// core per switch, random flows, and shortest-path routes. It is the
// workhorse for the convergence property tests.
func randomSetup(seed int64, nSwitch, nFlow int) (*topology.Topology, *traffic.Graph, *route.Table) {
	rng := rand.New(rand.NewSource(seed))
	top := topology.New("rand")
	for i := 0; i < nSwitch; i++ {
		sw := top.AddSwitch("")
		top.AttachCore(i, sw)
	}
	// Ring both ways guarantees connectivity; random chords add cycles.
	for i := 0; i < nSwitch; i++ {
		top.AddBidi(topology.SwitchID(i), topology.SwitchID((i+1)%nSwitch))
	}
	for i := 0; i < nSwitch; i++ {
		a := topology.SwitchID(rng.Intn(nSwitch))
		b := topology.SwitchID(rng.Intn(nSwitch))
		if a != b {
			top.AddLink(a, b) // duplicate rejection is fine
		}
	}
	g := traffic.NewGraph("rand")
	for i := 0; i < nSwitch; i++ {
		g.AddCore("")
	}
	for i := 0; i < nFlow; i++ {
		a := traffic.CoreID(rng.Intn(nSwitch))
		b := traffic.CoreID(rng.Intn(nSwitch))
		if a != b {
			g.MustAddFlow(a, b, float64(1+rng.Intn(100)))
		}
	}
	tab, err := route.ShortestPaths(top, g)
	if err != nil {
		panic(err) // construction guarantees connectivity
	}
	return top, g, tab
}

// TestRemoveOnAcyclicInputIsNoop pins both entry points on a design
// proven acyclic: nothing is broken, the result holds the inputs
// themselves, their bytes are as they were, and a done context still
// cancels.
func TestRemoveOnAcyclicInputIsNoop(t *testing.T) {
	// Two switches, one flow each way — single-hop routes create no
	// dependencies at all.
	top := topology.New("t")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	top.AddBidi(a, b)
	tab := route.NewTable(2)
	tab.Set(0, []topology.Channel{topology.Chan(0, 0)})
	tab.Set(1, []topology.Channel{topology.Chan(1, 0)})
	set := route.FromTable(tab)
	inputs := func() []byte {
		data, err := json.Marshal([]any{top, tab, set})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	before := inputs()
	res, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.InitialAcyclic || res.AddedVCs != 0 || res.Iterations != 0 || len(res.Breaks) != 0 {
		t.Errorf("no-op removal: %+v", res)
	}
	if res.Topology != top || res.Routes != tab {
		t.Error("proven table design: result does not hold the inputs")
	}
	sres, err := RemoveSetContext(context.Background(), top, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.InitialAcyclic || sres.AddedVCs != 0 || sres.Topology != top || sres.Routes != set {
		t.Errorf("proven set design: initially acyclic %v, %d VCs, result holds the inputs %v",
			sres.InitialAcyclic, sres.AddedVCs, sres.Topology == top && sres.Routes == set)
	}
	if after := inputs(); !bytes.Equal(before, after) {
		t.Errorf("inputs changed during removal:\nbefore %s\nafter  %s", before, after)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RemoveContext(done, top, tab, Options{}); !errors.Is(err, nocerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("table removal under a done context: %v, want canceled", err)
	}
	if _, err := RemoveSetContext(done, top, set, Options{}); !errors.Is(err, nocerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("set removal under a done context: %v, want canceled", err)
	}
}

func TestRemoveTwoDisjointRings(t *testing.T) {
	// Two independent 3-switch rings, each with flows wrapping all the way
	// around: two cycles, two breaks, at least two VCs.
	top := topology.New("t")
	for i := 0; i < 6; i++ {
		top.AddSwitch("")
	}
	ring := func(base int) []topology.LinkID {
		var ids []topology.LinkID
		for i := 0; i < 3; i++ {
			ids = append(ids, top.MustAddLink(
				topology.SwitchID(base+i), topology.SwitchID(base+(i+1)%3)))
		}
		return ids
	}
	r1 := ring(0)
	r2 := ring(3)
	tab := route.NewTable(6)
	mk := func(ids ...topology.LinkID) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(id, 0)
		}
		return out
	}
	// Each ring gets three 2-hop flows covering all consecutive pairs.
	tab.Set(0, mk(r1[0], r1[1]))
	tab.Set(1, mk(r1[1], r1[2]))
	tab.Set(2, mk(r1[2], r1[0]))
	tab.Set(3, mk(r2[0], r2[1]))
	tab.Set(4, mk(r2[1], r2[2]))
	tab.Set(5, mk(r2[2], r2[0]))
	res, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2 (one per ring)", res.Iterations)
	}
	if res.AddedVCs < 2 {
		t.Errorf("AddedVCs = %d, want >= 2", res.AddedVCs)
	}
	if err := res.Verify(); err != nil {
		t.Error(err)
	}
}

func TestRemoveIdempotent(t *testing.T) {
	top, _, tab := randomSetup(11, 8, 30)
	res, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Remove(res.Topology, res.Routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.InitialAcyclic || again.AddedVCs != 0 {
		t.Errorf("second removal not a no-op: %+v", again)
	}
}

func TestRemoveBookkeeping(t *testing.T) {
	top, _, tab := randomSetup(5, 10, 40)
	before := top.ExtraVCs()
	res, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Topology.ExtraVCs() - before; got != res.AddedVCs {
		t.Errorf("AddedVCs = %d but topology grew by %d", res.AddedVCs, got)
	}
	total := 0
	for _, b := range res.Breaks {
		total += len(b.NewChannels)
	}
	if total != res.AddedVCs {
		t.Errorf("break records account for %d VCs, result says %d", total, res.AddedVCs)
	}
	if len(res.Breaks) != res.Iterations {
		t.Errorf("%d break records for %d iterations", len(res.Breaks), res.Iterations)
	}
}

func TestRemoveMaxIterations(t *testing.T) {
	top, tab := paperExample()
	if _, err := Remove(top, tab, Options{MaxIterations: 0}); err != nil {
		t.Errorf("default iterations should succeed: %v", err)
	}
	// The example needs exactly one break. MaxIterations is a cap on
	// executed breaks, so the loop must error out when the CDG is still
	// cyclic at the cap. A cap of 1 must succeed.
	if _, err := Remove(top, tab, Options{MaxIterations: 1}); err != nil {
		t.Errorf("cap of 1 should suffice for the paper example: %v", err)
	}
}

func TestRemoveDegenerateSelfLoop(t *testing.T) {
	// A route that repeats a channel back to back produces a self-
	// dependency; Remove must reject it rather than duplicate forever.
	top := topology.New("t")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	top.MustAddLink(a, b)
	tab := route.NewTable(1)
	tab.Set(0, []topology.Channel{topology.Chan(0, 0), topology.Chan(0, 0)})
	if _, err := Remove(top, tab, Options{}); err == nil {
		t.Error("self-dependency accepted")
	}
}

func TestRemovePolicies(t *testing.T) {
	for _, policy := range []DirectionPolicy{BestOfBoth, ForwardOnly, BackwardOnly} {
		top, _, tab := randomSetup(23, 9, 35)
		res, err := Remove(top, tab, Options{Policy: policy})
		if err != nil {
			t.Errorf("policy %v: %v", policy, err)
			continue
		}
		if err := res.Verify(); err != nil {
			t.Errorf("policy %v: %v", policy, err)
		}
	}
}

func TestRemoveCycleSelections(t *testing.T) {
	for _, sel := range []CycleSelection{SmallestFirst, FirstFound} {
		top, _, tab := randomSetup(31, 9, 35)
		res, err := Remove(top, tab, Options{Selection: sel})
		if err != nil {
			t.Errorf("selection %v: %v", sel, err)
			continue
		}
		if err := res.Verify(); err != nil {
			t.Errorf("selection %v: %v", sel, err)
		}
	}
}

func TestBestOfBothNeverWorseThanSingleDirection(t *testing.T) {
	// The paper's two-direction search must never add more VCs than the
	// better of the two single-direction ablations on the same input.
	for seed := int64(0); seed < 10; seed++ {
		top, _, tab := randomSetup(seed, 8, 30)
		both, err := Remove(top, tab, Options{Policy: BestOfBoth})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fwd, err1 := Remove(top, tab, Options{Policy: ForwardOnly})
		bwd, err2 := Remove(top, tab, Options{Policy: BackwardOnly})
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: %v / %v", seed, err1, err2)
		}
		best := fwd.AddedVCs
		if bwd.AddedVCs < best {
			best = bwd.AddedVCs
		}
		// Greedy per-cycle choice is not globally optimal, so allow a
		// small slack; what we pin is that it is not systematically worse.
		if both.AddedVCs > best+2 {
			t.Errorf("seed %d: BestOfBoth added %d VCs, single-direction best %d",
				seed, both.AddedVCs, best)
		}
	}
}

func TestDeadlockFree(t *testing.T) {
	top, tab := paperExample()
	free, err := DeadlockFree(top, tab)
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Error("paper example reported deadlock-free before removal")
	}
	res, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	free, err = DeadlockFree(res.Topology, res.Routes)
	if err != nil {
		t.Fatal(err)
	}
	if !free {
		t.Error("result reported deadlocked after removal")
	}
}

// TestVerifyErrors pins Verify's two failures: a route naming a VC its
// link lacks, which cdg.Build reports with the hop, and a cyclic CDG.
func TestVerifyErrors(t *testing.T) {
	top, tab := paperExample()
	bad := tab.Clone()
	bad.Set(0, []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 1)})
	err := (&Result{Topology: top, Routes: bad}).Verify()
	if want := "cdg: flow 0 hop 1 uses unprovisioned channel {1 1}"; err == nil || err.Error() != want {
		t.Errorf("Verify = %v, want %q", err, want)
	}
	if err := (&Result{Topology: top, Routes: tab}).Verify(); !errors.Is(err, nocerr.ErrCyclicCDG) {
		t.Errorf("Verify on the cyclic paper example = %v, want ErrCyclicCDG", err)
	}
}

// TestRemoveConvergesProperty is the central property test: for random
// topologies and random shortest-path-routed traffic, Remove always
// terminates with an acyclic CDG, valid routes, and consistent
// bookkeeping.
func TestRemoveConvergesProperty(t *testing.T) {
	f := func(seed int64) bool {
		nSwitch := 4 + int(uint64(seed)%7)
		top, g, tab := randomSetup(seed, nSwitch, 4*nSwitch)
		res, err := Remove(top, tab, Options{})
		if err != nil {
			return false
		}
		if res.Verify() != nil {
			return false
		}
		// Routes must remain valid against topology and traffic: same
		// endpoints, contiguous, no revisits.
		if res.Routes.Validate(res.Topology, g) != nil {
			return false
		}
		// Physical structure is untouched: only VCs were added.
		if res.Topology.NumLinks() != top.NumLinks() || res.Topology.NumSwitches() != top.NumSwitches() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRerouteKeepsPhysicalPath verifies that rerouting only changes VC
// indices, never the physical links — the paper moves flows onto new VCs
// of the same links.
func TestRerouteKeepsPhysicalPath(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		top, _, tab := randomSetup(seed, 7, 25)
		res, err := Remove(top, tab, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tab.Routes() {
			got := res.Routes.Route(r.FlowID)
			if got.Len() != r.Len() {
				t.Fatalf("seed %d flow %d: length changed %d→%d", seed, r.FlowID, r.Len(), got.Len())
			}
			for i := range r.Channels {
				if got.Channels[i].Link != r.Channels[i].Link {
					t.Fatalf("seed %d flow %d hop %d: physical link changed", seed, r.FlowID, i)
				}
			}
		}
	}
}

func TestCostTableErrorPaths(t *testing.T) {
	_, tab := paperExample()
	// A "cycle" made of channels no flow connects: must error.
	fake := []topology.Channel{topology.Chan(0, 0), topology.Chan(2, 0)}
	if _, err := BuildCostTable(Forward, fake, tab); err == nil {
		t.Error("cost table built for cycle with uncovered edges")
	}
	// breakCycle on a dependency no flow creates: must error.
	top, tab2 := paperExample()
	if _, _, err := breakCycle(top, tab2, fake, 0, Forward, 1, nil); err == nil {
		t.Error("breakCycle succeeded on nonexistent dependency")
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("Direction.String mismatch")
	}
}

// TestChainSharingAcrossFlows pins the shared-duplicate behaviour: two
// flows creating the same broken dependency with nested chains must share
// the duplicated channels rather than each getting a private copy.
func TestChainSharingAcrossFlows(t *testing.T) {
	// Line topology A→B→C→D→A ring; F1 = {L1,L2,L3}, F4 = {L1,L2} share
	// the forward chain at D2... use the paper example and break D1
	// forward: both F1 and F4 enter at L1, chain length 1, one duplicate.
	top, tab := paperExample()
	rec, _, err := breakCycle(top, tab, paperCycle(), 0, Forward, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.NewChannels) != 1 {
		t.Fatalf("expected 1 shared duplicate, got %v", rec.NewChannels)
	}
	if tab.Route(0).Channels[0] != tab.Route(3).Channels[0] {
		t.Error("F1 and F4 do not share the duplicate channel")
	}
}

// TestRemoveDeterministic pins run-to-run determinism of the whole
// algorithm, which the experiments rely on.
func TestRemoveDeterministic(t *testing.T) {
	top, _, tab := randomSetup(77, 10, 50)
	a, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Remove(top, tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.AddedVCs != b.AddedVCs || a.Iterations != b.Iterations {
		t.Fatalf("nondeterministic removal: %d/%d VCs, %d/%d iterations",
			a.AddedVCs, b.AddedVCs, a.Iterations, b.Iterations)
	}
	for i := range a.Breaks {
		if a.Breaks[i].EdgePos != b.Breaks[i].EdgePos || a.Breaks[i].Direction != b.Breaks[i].Direction {
			t.Fatalf("break %d differs between runs", i)
		}
	}
}
