package wormhole

import (
	"context"
	"math"
	"math/bits"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// ringExample builds the paper's Figure 1 network: the cyclic-CDG ring
// with flows F1..F4, one core per switch.
func ringExample() (*topology.Topology, *traffic.Graph, *route.Table) {
	top := topology.New("figure1")
	for i := 0; i < 4; i++ {
		sw := top.AddSwitch("")
		top.AttachCore(i, sw)
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	g := traffic.NewGraph("ring")
	for i := 0; i < 4; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, 3, 100) // F1 = L1,L2,L3
	g.MustAddFlow(2, 0, 100) // F2 = L3,L4
	g.MustAddFlow(3, 1, 100) // F3 = L4,L1
	g.MustAddFlow(0, 2, 100) // F4 = L1,L2
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	tab := route.NewTable(4)
	tab.Set(0, ch(0, 1, 2))
	tab.Set(1, ch(2, 3))
	tab.Set(2, ch(3, 0))
	tab.Set(3, ch(0, 1))
	return top, g, tab
}

// lineExample builds an acyclic 3-switch line with one flow across it.
func lineExample(flits int) (*topology.Topology, *traffic.Graph, *route.Table) {
	top := topology.New("line")
	a := top.AddSwitch("")
	b := top.AddSwitch("")
	c := top.AddSwitch("")
	l0 := top.MustAddLink(a, b)
	l1 := top.MustAddLink(b, c)
	top.AttachCore(0, a)
	top.AttachCore(1, c)
	g := traffic.NewGraph("line")
	g.AddCore("")
	g.AddCore("")
	fid := g.MustAddFlow(0, 1, 100)
	g.SetPacketFlits(fid, flits)
	tab := route.NewTable(1)
	tab.Set(0, []topology.Channel{topology.Chan(l0, 0), topology.Chan(l1, 0)})
	return top, g, tab
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                                       // MaxCycles missing
		{MaxCycles: 100, LoadFactor: 2},          // load > 1
		{MaxCycles: 100, LoadFactor: -0.5},       // negative load
		{MaxCycles: 100, LoadFactor: math.NaN()}, // NaN load
		{MaxCycles: 100, PacketsPerFlow: -1},     // negative budget
		{MaxCycles: 100, WarmupCycles: -1},       // negative warmup
	}
	for i, cfg := range cases {
		top, g, tab := lineExample(4)
		if _, err := New(top, g, tab, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestNewRejectsBadRoutes(t *testing.T) {
	top, g, _ := lineExample(4)
	missing := route.NewTable(1)
	if _, err := New(top, g, missing, Config{MaxCycles: 10}); err == nil {
		t.Error("missing route accepted")
	}
	bad := route.NewTable(1)
	bad.Set(0, []topology.Channel{topology.Chan(0, 5)})
	if _, err := New(top, g, bad, Config{MaxCycles: 10}); err == nil {
		t.Error("unprovisioned channel accepted")
	}
	dup := route.NewTable(1)
	dup.Set(0, []topology.Channel{topology.Chan(0, 0), topology.Chan(1, 0), topology.Chan(0, 0)})
	if _, err := New(top, g, dup, Config{MaxCycles: 10}); err == nil {
		t.Error("channel revisit accepted")
	}
}

func TestSinglePacketLatency(t *testing.T) {
	// One 4-flit packet over 2 hops: tail ejects at cycle
	// hops + flits - 1 = 5 (head: inject@0, hop@1, eject@2; one flit
	// drains per cycle after).
	top, g, tab := lineExample(4)
	sim, err := New(top, g, tab, Config{MaxCycles: 100, PacketsPerFlow: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained {
		t.Fatalf("single packet did not drain: %+v", st)
	}
	if st.DeliveredPackets != 1 || st.DeliveredFlits != 4 {
		t.Errorf("delivered %d packets / %d flits", st.DeliveredPackets, st.DeliveredFlits)
	}
	if st.LatencyMax != 5 {
		t.Errorf("latency = %d, want 5 (2 hops + 4 flits - 1)", st.LatencyMax)
	}
	if st.AvgLatency() != 5 {
		t.Errorf("avg latency = %f, want 5", st.AvgLatency())
	}
}

func TestRingDeadlocksUnderSaturation(t *testing.T) {
	top, g, tab := ringExample()
	sim, err := New(top, g, tab, Config{
		MaxCycles:  20000,
		LoadFactor: 1.0,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Deadlocked {
		t.Fatalf("cyclic-CDG ring did not deadlock at saturation: %+v", st)
	}
	if len(st.DeadlockPackets) < 2 {
		t.Errorf("wait-for cycle has %d packets, want >= 2", len(st.DeadlockPackets))
	}
	// Every packet on the cycle must hold at least one channel.
	for _, pid := range st.DeadlockPackets {
		if len(sim.HeldChannels(pid)) == 0 {
			t.Errorf("deadlocked packet %d holds no channel", pid)
		}
	}
}

func TestRemovalEliminatesDeadlock(t *testing.T) {
	top, g, tab := ringExample()
	res, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(res.Topology, g, res.Routes, Config{
		MaxCycles:  20000,
		LoadFactor: 1.0,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatalf("deadlock after removal at cycle %d (packets %v)",
			st.DeadlockCycle, st.DeadlockPackets)
	}
	if st.DeliveredPackets == 0 {
		t.Error("nothing delivered at saturation")
	}
}

func TestOrderingEliminatesDeadlock(t *testing.T) {
	top, g, tab := ringExample()
	res, err := ordering.Apply(top, tab, ordering.HopIndex)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(res.Topology, g, res.Routes, Config{
		MaxCycles:  20000,
		LoadFactor: 1.0,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("deadlock after resource ordering")
	}
}

func TestRemovedRingDrainsFiniteWorkload(t *testing.T) {
	top, g, tab := ringExample()
	res, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(res.Topology, g, res.Routes, Config{
		MaxCycles:      200000,
		PacketsPerFlow: 50,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained {
		t.Fatalf("finite workload did not drain: %+v", st)
	}
	if st.DeliveredPackets != 4*50 {
		t.Errorf("delivered %d packets, want 200", st.DeliveredPackets)
	}
	if st.InjectedFlits != st.DeliveredFlits {
		t.Errorf("flits injected %d != delivered %d", st.InjectedFlits, st.DeliveredFlits)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		top, g, tab := ringExample()
		res, err := core.Remove(top, tab, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(res.Topology, g, res.Routes, Config{
			MaxCycles:  5000,
			LoadFactor: 0.5,
			Seed:       42,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	a, b := run(), run()
	if !statsEqual(a, b) {
		t.Errorf("nondeterministic simulation:\n%+v\n%+v", a, b)
	}
}

func statsEqual(a, b Stats) bool {
	return a.Cycles == b.Cycles &&
		a.InjectedPackets == b.InjectedPackets &&
		a.DeliveredPackets == b.DeliveredPackets &&
		a.InjectedFlits == b.InjectedFlits &&
		a.DeliveredFlits == b.DeliveredFlits &&
		a.LatencySum == b.LatencySum &&
		a.LatencyMax == b.LatencyMax &&
		a.Deadlocked == b.Deadlocked &&
		a.DeadlockCycle == b.DeadlockCycle
}

func TestLocalFlowsBypassFabric(t *testing.T) {
	top := topology.New("t")
	sw := top.AddSwitch("")
	top.AttachCore(0, sw)
	top.AttachCore(1, sw)
	g := traffic.NewGraph("t")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 10)
	tab := route.NewTable(1)
	tab.Set(0, nil)
	sim, err := New(top, g, tab, Config{MaxCycles: 100, PacketsPerFlow: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalPackets != 5 {
		t.Errorf("LocalPackets = %d, want 5", st.LocalPackets)
	}
	if st.InjectedPackets != 0 || st.Deadlocked {
		t.Errorf("local traffic entered the fabric: %+v", st)
	}
	if !st.Drained {
		t.Error("local workload did not drain")
	}
}

func TestBackpressureWithTinyBuffers(t *testing.T) {
	// Depth-1 buffers and a 16-flit packet: the worm spans the whole
	// line; everything must still drain on an acyclic route.
	top, g, tab := lineExample(16)
	sim, err := New(top, g, tab, Config{
		MaxCycles:      10000,
		PacketsPerFlow: 3,
		BufferDepth:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained || st.Deadlocked {
		t.Fatalf("acyclic line stalled with tiny buffers: %+v", st)
	}
	if st.DeliveredFlits != 3*16 {
		t.Errorf("delivered %d flits, want 48", st.DeliveredFlits)
	}
}

// TestWormholeInvariants steps three saturated designs and checks the
// channel ownership invariants, the occupied bits and the ready worklist
// every cycle: the cyclic ring (stepped on past its deadlock), the
// removed D36_8 design at 14 switches (288 flows) and the faulted 8x8
// mesh under odd-even route sets (over 200 channels, heads that choose).
// chanWords is how many words of the occupied bitset must hold a set bit
// at some cycle, and every such word must see a bit cleared, so that the
// walk past the first word is exercised. On
// the ring a channel is owned exactly while its buffer holds flits
// (strict); in the other two designs a worm may also span a channel that
// has just drained.
func TestWormholeInvariants(t *testing.T) {
	for _, c := range []struct {
		name      string
		build     func(t *testing.T) *Simulator
		cycles    int
		chanWords int
		strict    bool
	}{
		{"ring", func(t *testing.T) *Simulator {
			top, g, tab := ringExample()
			return mustSim(t)(New(top, g, tab, Config{MaxCycles: 3000, LoadFactor: 1.0}))
		}, 3000, 1, true},
		{"D36_8@14 removed", func(t *testing.T) *Simulator {
			g := traffic.D36(8)
			des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
			if err != nil {
				t.Fatal(err)
			}
			rm, err := core.Remove(des.Topology, des.Routes, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return mustSim(t)(New(rm.Topology, g, rm.Routes, Config{MaxCycles: 1500, LoadFactor: 1, Seed: 11}))
		}, 1500, 1, false},
		{"mesh 8x8 faulted odd-even", func(t *testing.T) *Simulator {
			grid, err := regular.Mesh(8, 8)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := regular.SelectFaults(grid, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := grid.Topology.Fault(ids...); err != nil {
				t.Fatal(err)
			}
			g, err := regular.UniformTraffic(64, 32, 100)
			if err != nil {
				t.Fatal(err)
			}
			set, err := route.GridRoutes(grid.Topology, g, grid.Spec(), route.OddEven, 0)
			if err != nil {
				t.Fatal(err)
			}
			rm, err := core.RemoveSetContext(context.Background(), grid.Topology, set, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return mustSim(t)(NewAdaptive(rm.Topology, g, rm.Routes, Config{
				MaxCycles: 1500, LoadFactor: 1, BufferDepth: 2, Seed: 11}))
		}, 1500, 3, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := c.build(t)
			// used[w]: word w held a set bit; drained[w]: one of its
			// bits was cleared, so the walk reached it.
			used := make([]bool, len(sim.occupied))
			drained := make([]bool, len(sim.occupied))
			prev := make([]uint64, len(sim.occupied))
			for i := 0; i < c.cycles; i++ {
				sim.Step()
				checkInvariants(t, sim, i, c.strict)
				for w, word := range sim.occupied {
					used[w] = used[w] || word != 0
					drained[w] = drained[w] || prev[w]&^word != 0
				}
				copy(prev, sim.occupied)
			}
			n := 0
			for w, u := range used {
				if u {
					n++
				}
				if u && !drained[w] {
					t.Errorf("channel word %d held flits, but no channel in it ever drained", w)
				}
			}
			if n < c.chanWords {
				t.Errorf("%d of %d channel words ever held a set bit, want at least %d", n, len(used), c.chanWords)
			}
		})
	}
}

// mustSim returns a constructor's simulator, failing t on its error.
func mustSim(t *testing.T) func(*Simulator, error) *Simulator {
	return func(s *Simulator, err error) *Simulator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// checkInvariants checks, after cycle i, that every channel's buffer
// holds only its owner's flits within its depth, that an owned channel's
// packet is still in flight (an empty owned channel is spanned by its
// worm; under strict no channel is owned and empty), that each packet's
// buffered flits are those injected and not yet ejected, that the
// occupied bits are exactly the non-empty channels and nOccupied counts
// them, and that the ready worklist holds exactly the flows with queued
// packets, each at its readyPos.
func checkInvariants(t *testing.T, sim *Simulator, i int, strict bool) {
	t.Helper()
	occupied, ready := 0, 0
	buffered := make([]int, len(sim.pkts))
	for ci := range sim.chans {
		cs := &sim.chans[ci]
		if strict && (cs.owner == -1) != (cs.n == 0) {
			t.Fatalf("cycle %d: channel %d owner/buffer invariant broken (owner %d, %d flits)",
				i, ci, cs.owner, cs.n)
		}
		if cs.n > 0 && cs.owner == -1 {
			t.Fatalf("cycle %d: channel %d holds %d flits and no owner", i, ci, cs.n)
		}
		if cs.owner != -1 {
			if p := sim.pkts[cs.owner]; p.ejected >= p.flits {
				t.Fatalf("cycle %d: channel %d owned by delivered packet %d", i, ci, p.id)
			}
		}
		if cs.n > sim.depth {
			t.Fatalf("cycle %d: channel %d overflows (%d flits)", i, ci, cs.n)
		}
		for k := int32(0); k < cs.n; k++ {
			fr := sim.flits[int32(ci)*sim.depth+(cs.head+k)%sim.depth]
			if fr.slot != cs.owner {
				t.Fatalf("cycle %d: foreign flit (slot %d) in channel %d owned by slot %d",
					i, fr.slot, ci, cs.owner)
			}
			buffered[fr.slot]++
		}
		if bit := sim.occupied[ci/64]>>(ci%64)&1 == 1; bit != (cs.n > 0) {
			t.Fatalf("cycle %d: channel %d occupied bit %v with %d flits", i, ci, bit, cs.n)
		}
		if cs.n > 0 {
			occupied++
		}
	}
	for slot, p := range sim.pkts {
		if buffered[slot] != p.injected-p.ejected {
			t.Fatalf("cycle %d: packet %d has %d flits buffered, %d injected, %d ejected",
				i, p.id, buffered[slot], p.injected, p.ejected)
		}
	}
	for fi := range sim.flows {
		q, pos := sim.flows[fi].qlen(), sim.readyPos[fi]
		if (pos >= 0) != (q > 0) || pos >= 0 && (int(pos) >= len(sim.ready) || int(sim.ready[pos]) != fi) {
			t.Fatalf("cycle %d: flow %d at ready position %d with %d queued packets", i, fi, pos, q)
		}
		if q > 0 {
			ready++
		}
	}
	// Equal counts also rule out a bit set past the last channel and a
	// stale worklist entry.
	bitsSet := 0
	for _, w := range sim.occupied {
		bitsSet += bits.OnesCount64(w)
	}
	if bitsSet != occupied || sim.nOccupied != occupied {
		t.Fatalf("cycle %d: %d occupied bits, nOccupied %d, %d non-empty channels", i, bitsSet, sim.nOccupied, occupied)
	}
	if len(sim.ready) != ready {
		t.Fatalf("cycle %d: %d flows in the ready worklist, %d with queued packets", i, len(sim.ready), ready)
	}
}

func TestPerFlowStats(t *testing.T) {
	top, g, tab := ringExample()
	res, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(res.Topology, g, res.Routes, Config{
		MaxCycles:      100000,
		PacketsPerFlow: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained {
		t.Fatalf("workload did not drain: %+v", st)
	}
	if len(st.PerFlow) != g.NumFlows() {
		t.Fatalf("PerFlow has %d entries, want %d", len(st.PerFlow), g.NumFlows())
	}
	var delivered int64
	for i, f := range st.PerFlow {
		if f.Injected != 20 || f.Delivered != 20 {
			t.Errorf("flow %d: injected %d delivered %d, want 20/20", i, f.Injected, f.Delivered)
		}
		if f.AvgLatency() <= 0 {
			t.Errorf("flow %d: non-positive avg latency", i)
		}
		delivered += f.Delivered
	}
	if delivered != st.DeliveredPackets+st.LocalPackets {
		t.Errorf("per-flow delivered %d != total %d", delivered, st.DeliveredPackets+st.LocalPackets)
	}
	var zero FlowStats
	if zero.AvgLatency() != 0 {
		t.Error("zero FlowStats latency not 0")
	}
}

func TestStatsHelpers(t *testing.T) {
	var st Stats
	if st.AvgLatency() != 0 || st.ThroughputFlitsPerCycle() != 0 {
		t.Error("zero-value stats helpers must return 0")
	}
	st = Stats{LatencyCount: 2, LatencySum: 10, Cycles: 4, DeliveredFlits: 8}
	if st.AvgLatency() != 5 || st.ThroughputFlitsPerCycle() != 2 {
		t.Error("stats helpers wrong")
	}
}

func TestHigherLoadHigherLatencyOnSharedLink(t *testing.T) {
	// Two flows share one link; at higher load the average latency must
	// not drop (sanity of the congestion model).
	build := func(load float64) *Stats {
		top := topology.New("t")
		a := top.AddSwitch("")
		b := top.AddSwitch("")
		l0 := top.MustAddLink(a, b)
		top.AttachCore(0, a)
		top.AttachCore(1, b)
		top.AttachCore(2, a)
		top.AttachCore(3, b)
		g := traffic.NewGraph("t")
		for i := 0; i < 4; i++ {
			g.AddCore("")
		}
		g.MustAddFlow(0, 1, 100)
		g.MustAddFlow(2, 3, 100)
		tab := route.NewTable(2)
		tab.Set(0, []topology.Channel{topology.Chan(l0, 0)})
		top.AddVC(l0)
		tab.Set(1, []topology.Channel{topology.Chan(l0, 1)})
		sim, err := New(top, g, tab, Config{MaxCycles: 20000, LoadFactor: load, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	low := build(0.1)
	high := build(0.9)
	if high.AvgLatency() < low.AvgLatency() {
		t.Errorf("latency fell with load: %.2f @0.1 vs %.2f @0.9",
			low.AvgLatency(), high.AvgLatency())
	}
	if high.Deadlocked || low.Deadlocked {
		t.Error("acyclic two-VC link deadlocked")
	}
}

// TestLoopingRouteSetKeepsHeadsChoosing pins the one case where a hop
// with a single permitted next channel must not commit on entry: a flow
// whose candidate paths together loop (A→B→C→A here) could meet its own
// worm, and only a free channel may take a head. The single transition
// A→B stays pending, so a head that comes round the loop waits at A
// until its own tail has left B, and every packet drains with its worms
// intact.
func TestLoopingRouteSetKeepsHeadsChoosing(t *testing.T) {
	top := topology.New("loop")
	for i := 0; i < 5; i++ { // s, A, B, C, d
		top.AddSwitch("")
	}
	s, a, b, c, d := topology.SwitchID(0), topology.SwitchID(1), topology.SwitchID(2), topology.SwitchID(3), topology.SwitchID(4)
	// Link IDs order the channels, so first-free prefers the loop: from
	// B it takes C before d, from C it takes A before d.
	ab, bc, ca := top.MustAddLink(a, b), top.MustAddLink(b, c), top.MustAddLink(c, a)
	sb, sc := top.MustAddLink(s, b), top.MustAddLink(s, c)
	ad, cd := top.MustAddLink(a, d), top.MustAddLink(c, d)
	top.AttachCore(0, s)
	top.AttachCore(1, d)
	g := traffic.NewGraph("loop")
	g.AddCore("")
	g.AddCore("")
	g.SetPacketFlits(g.MustAddFlow(0, 1, 100), 4)
	ch := func(ids ...topology.LinkID) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(id, 0)
		}
		return out
	}
	set := route.NewRouteSet(1)
	set.Add(0, ch(sc, ca, ab, bc, cd)) // A→B only ever continues to C
	set.Add(0, ch(sb, bc, ca, ad))
	sim, err := NewAdaptive(top, g, set, Config{MaxCycles: 400, PacketsPerFlow: 3, BufferDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, next := range sim.tab.enter {
		if next >= 0 {
			t.Fatalf("node %d commits to channel %d on entry although its flow loops", v, next)
		}
	}
	lr := sim.startRun()
	for lr.stepOnce() {
		for ci, cs := range sim.chans {
			for k := int32(0); k < cs.n; k++ {
				fr := sim.flits[int32(ci)*sim.depth+(cs.head+k)%sim.depth]
				if fr.slot != cs.owner || fr.isHead && k > 0 {
					t.Fatalf("cycle %d: channel %d (owner %d) holds flit %+v at %d", sim.now, ci, cs.owner, fr, k)
				}
			}
		}
	}
	if st := sim.Stats(); !st.Drained || st.DeliveredPackets != 3 {
		t.Fatalf("looping set did not drain: %+v", st)
	}
}
