package wormhole

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// --- The reference arbitration: the seed engine's map-based decision
// procedure, kept as the oracle the dense, bitset-walking arbitrate must
// agree with on every cycle (two paths, one answer). ---

// refStepper steps a Simulator with the reference arbitration in place of
// arbitrate. Recovery, packet creation and move application are the
// engine's own code; the stepper adds only the seed engine's lookup
// tables and admission rule around them.
type refStepper struct {
	s      *Simulator
	routes [][]topology.Channel // flow ID → route channels
	hop    []map[int]int        // channel → flow ID → hop index
}

// newRefStepper wraps a simulator that New built from tab.
func newRefStepper(s *Simulator, tab *route.Table) *refStepper {
	r := &refStepper{
		s:      s,
		routes: make([][]topology.Channel, len(s.flows)),
		hop:    make([]map[int]int, len(s.chans)),
	}
	for ci := range r.hop {
		r.hop[ci] = map[int]int{}
	}
	for _, fs := range s.flows {
		r.routes[fs.id] = tab.Route(fs.id).Channels
		for h, ch := range r.routes[fs.id] {
			r.hop[s.idx[ch]][fs.id] = h
		}
	}
	return r
}

// step is Simulator.Step with the reference arbitration.
func (r *refStepper) step() bool {
	r.s.stepRecovery()
	r.s.createPackets()
	return r.s.commit(r.arbitrate())
}

// front returns channel ci's front flit, read straight off its ring.
func (r *refStepper) front(ci int) flitRef {
	return r.s.flits[ci*int(r.s.depth)+int(r.s.chans[ci].head)]
}

// admissible is the seed engine's admission rule: flit fr may enter
// channel ci when the buffer has space and the channel is its own
// packet's, or free and fr is a head.
func (r *refStepper) admissible(ci int, fr flitRef) bool {
	cs := &r.s.chans[ci]
	if cs.n >= r.s.depth {
		return false
	}
	return cs.owner == fr.slot || cs.owner == -1 && fr.isHead
}

// arbitrate reproduces the seed engine's arbitration: a full scan over
// every channel (idle or not), flit resolution to the packet and its
// flow, hop resolution through the per-channel flow→hop map, next-hop
// resolution through the channel→index map, and per-link candidate
// grouping in a freshly allocated map with an explicit link sort.
func (r *refStepper) arbitrate() []move {
	s := r.s
	var moves []move
	// Ejections first: final-hop buffers always drain one flit.
	for ci := range s.chans {
		if s.chans[ci].n == 0 {
			continue
		}
		p := s.pkts[r.front(ci).slot]
		if r.hop[ci][p.flow] == len(r.routes[p.flow])-1 {
			moves = append(moves, move{src: int32(ci), dst: -1})
		}
	}
	// Link transfers: gather candidates per link, pick one round-robin.
	byLink := make(map[topology.LinkID][]cand)
	for ci := range s.chans {
		if s.chans[ci].n == 0 {
			continue
		}
		fr := r.front(ci)
		p := s.pkts[fr.slot]
		rt := r.routes[p.flow]
		hop := r.hop[ci][p.flow]
		if hop == len(rt)-1 {
			continue // ejection, handled above
		}
		next := rt[hop+1]
		ni := s.idx[next]
		if !r.admissible(ni, fr) {
			continue
		}
		byLink[next.Link] = append(byLink[next.Link], cand{
			m:   move{src: int32(ci), dst: int32(ni)},
			key: candKey(int32(next.VC), 0, ci),
		})
	}
	// Injection candidates.
	for i := range s.flows {
		fs := &s.flows[i]
		if fs.qlen() == 0 {
			continue
		}
		slot := fs.qfront()
		p := s.pkts[slot]
		first := r.routes[fs.id][0]
		ni := s.idx[first]
		fr := flitRef{slot: slot, isHead: p.injected == 0, isTail: p.injected == p.flits-1}
		if !r.admissible(ni, fr) {
			continue
		}
		byLink[first.Link] = append(byLink[first.Link], cand{
			m:   move{src: -1, fl: int32(fs.id), dst: int32(ni)},
			key: candKey(int32(first.VC), 1, len(s.chans)+fs.id),
		})
	}
	// Iterate links in ID order so the cycle outcome is independent of
	// map iteration order.
	links := make([]topology.LinkID, 0, len(byLink))
	for link := range byLink {
		links = append(links, link)
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	for _, link := range links {
		cands := byLink[link]
		pick := 0
		if len(cands) > 1 {
			sortCands(cands)
			pick = s.linkRR[link] % len(cands)
			s.linkRR[link]++
		}
		moves = append(moves, cands[pick].m)
	}
	return moves
}

// run is Simulator.Run with the reference arbitration: the engine's own
// run protocol (watchdog, recovery, drain) around each reference step.
func (r *refStepper) run() Stats {
	s := r.s
	lr := s.startRun()
	for s.now < s.cfg.MaxCycles {
		r.step()
		if !lr.endCycle() {
			break
		}
	}
	s.finishStats()
	return s.Stats()
}

// diffStats compares two stats snapshots field by field, ignoring the
// collection order of Latencies (both runs record the same multiset; only
// the finish pass sorts it).
func diffStats(t *testing.T, label string, a, b Stats) {
	t.Helper()
	a.Latencies, b.Latencies = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: fast and reference stats diverge:\nfast: %+v\nref:  %+v", label, a, b)
	}
}

// diffScenario steps the engine and the reference side by side through
// the run protocol until the engine's run ends — deadlock confirmed,
// drained, or the horizon — requiring the same progress every cycle, the
// same statistics every 64 cycles, and the same final outcome, which it
// returns.
func diffScenario(t *testing.T, label string, build func() (*topology.Topology, *traffic.Graph, *route.Table), cfg Config) Stats {
	t.Helper()
	top, g, tab := build()
	fast, err := New(top, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refSim, err := New(top, g, tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStepper(refSim, tab)
	fastRun, refRun := fast.startRun(), refSim.startRun()
	for fast.now < fast.cfg.MaxCycles {
		cycle := fast.now
		if fm, rm := fast.Step(), ref.step(); fm != rm {
			t.Fatalf("%s: cycle %d: fast progressed=%v, reference progressed=%v", label, cycle, fm, rm)
		}
		fastOn, refOn := fastRun.endCycle(), refRun.endCycle()
		if fastOn != refOn {
			t.Fatalf("%s: cycle %d: fast run goes on=%v, reference run goes on=%v", label, cycle, fastOn, refOn)
		}
		if !fastOn {
			break
		}
		if cycle%64 == 0 {
			diffStats(t, fmt.Sprintf("%s @ cycle %d", label, cycle), fast.Stats(), refSim.Stats())
		}
	}
	fast.finishStats()
	refSim.finishStats()
	want, got := fast.Stats(), refSim.Stats()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: final stats diverge:\nfast: %+v\nref:  %+v", label, want, got)
	}
	return want
}

// removedRing is the Figure 1 ring after deadlock removal.
func removedRing(t *testing.T) func() (*topology.Topology, *traffic.Graph, *route.Table) {
	return func() (*topology.Topology, *traffic.Graph, *route.Table) {
		top, g, tab := ringExample()
		res, err := core.Remove(top, tab, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Topology, g, res.Routes
	}
}

func TestReferenceMatchesFastStepwise(t *testing.T) {
	saturated := Config{MaxCycles: 3000, LoadFactor: 1.0, Seed: 7, BufferDepth: 2, CollectLatencies: true}
	moderate := Config{MaxCycles: 3000, LoadFactor: 0.4, Seed: 3, CollectLatencies: true}
	drain := Config{MaxCycles: 1 << 30, PacketsPerFlow: 10, Seed: 5, CollectLatencies: true}
	recovery := Config{MaxCycles: 1 << 30, PacketsPerFlow: 25, Seed: 3, BufferDepth: 2, Recovery: true, CollectLatencies: true}

	if st := diffScenario(t, "cyclic ring saturated", ringExample, saturated); !st.Deadlocked {
		t.Errorf("cyclic ring saturated: run ended at cycle %d without a confirmed deadlock", st.Cycles)
	}
	diffScenario(t, "removed ring saturated", removedRing(t), saturated)
	diffScenario(t, "removed ring moderate", removedRing(t), moderate)
	if st := diffScenario(t, "removed ring drain", removedRing(t), drain); !st.Drained {
		t.Errorf("removed ring drain: run ended at cycle %d undrained", st.Cycles)
	}
	if st := diffScenario(t, "cyclic ring recovery", ringExample, recovery); !st.Drained || st.Recoveries == 0 {
		t.Errorf("cyclic ring recovery: drained=%v after %d recoveries", st.Drained, st.Recoveries)
	}
}

func TestReferenceMatchesFastRunOutcome(t *testing.T) {
	// Full Run comparison including deadlock confirmation on the cyclic
	// ring and clean completion after removal, with latency collection.
	cfg := Config{MaxCycles: 20000, LoadFactor: 1.0, Seed: 9, CollectLatencies: true}
	for name, build := range map[string]func() (*topology.Topology, *traffic.Graph, *route.Table){
		"cyclic ring":  ringExample,
		"removed ring": removedRing(t),
	} {
		top, g, tab := build()
		fast, err := New(top, g, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fast.Run()
		if err != nil {
			t.Fatal(err)
		}
		refSim, err := New(top, g, tab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := newRefStepper(refSim, tab).run(); !reflect.DeepEqual(*want, got) {
			t.Errorf("%s: Run outcomes diverge:\nfast: %+v\nref:  %+v", name, *want, got)
		}
	}
}

// BenchmarkSimStepMapBaseline steps the root package's BenchmarkSimStep
// workload — the six paper benchmarks synthesized at 14 switches, with
// deadlocks removed, at load 0.1 — through the reference arbitration.
// Both arbitrations decide identical moves, so the ratio of the two
// benchmarks is the dense engine's hot-loop speedup over the seed engine.
func BenchmarkSimStepMapBaseline(b *testing.B) {
	for _, name := range traffic.BenchmarkNames() {
		b.Run(name, func(b *testing.B) {
			g, err := traffic.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			des, err := synth.Synthesize(g, synth.Options{SwitchCount: 14})
			if err != nil {
				b.Fatal(err)
			}
			rm, err := core.Remove(des.Topology, des.Routes, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sim, err := New(rm.Topology, g, rm.Routes, Config{MaxCycles: 1 << 62, LoadFactor: 0.1, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			ref := newRefStepper(sim, rm.Routes)
			// Warm the network into steady state before timing.
			for i := 0; i < 2000; i++ {
				ref.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref.step()
			}
		})
	}
}

// --- Seeded stress for detect.go and recovery.go under the new engine:
// known-cyclic route sets must trip the detector, and recovery must drain
// every packet of a finite workload through the same cyclic design. ---

// sixRing builds a 6-switch unidirectional ring with stride-2 uniform
// traffic routed forward — every link's dependency chain wraps, so the
// CDG is one big cycle (the paper's Figure 1 family, scaled up).
func sixRing(t *testing.T) (*topology.Topology, *traffic.Graph, *route.Table) {
	t.Helper()
	grid, err := regular.Ring(6, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := regular.UniformTraffic(6, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := regular.DORRoutes(grid, g)
	if err != nil {
		t.Fatal(err)
	}
	return grid.Topology, g, tab
}

func TestDetectorStressSeeded(t *testing.T) {
	builders := map[string]func() (*topology.Topology, *traffic.Graph, *route.Table){
		"fig1_ring": func() (*topology.Topology, *traffic.Graph, *route.Table) { return ringExample() },
		"six_ring":  func() (*topology.Topology, *traffic.Graph, *route.Table) { return sixRing(t) },
	}
	for name, build := range builders {
		for seed := int64(1); seed <= 8; seed++ {
			top, g, tab := build()
			sim, err := New(top, g, tab, Config{
				MaxCycles:   50000,
				LoadFactor:  1.0,
				Seed:        seed,
				BufferDepth: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Deadlocked {
				t.Fatalf("%s seed %d: cyclic route set did not deadlock at saturation: %+v", name, seed, st)
			}
			if len(st.DeadlockPackets) < 2 {
				t.Errorf("%s seed %d: watchdog fired but wait-for cycle has %d packets",
					name, seed, len(st.DeadlockPackets))
			}
			for _, pid := range st.DeadlockPackets {
				if len(sim.HeldChannels(pid)) == 0 {
					t.Errorf("%s seed %d: deadlocked packet %d holds no channel", name, seed, pid)
				}
			}
		}
	}
}

func TestRecoveryStressDrainsAllPackets(t *testing.T) {
	const perFlow = 25
	var totalRecoveries int64
	for seed := int64(1); seed <= 8; seed++ {
		top, g, tab := ringExample()
		sim, err := New(top, g, tab, Config{
			MaxCycles:      500000,
			PacketsPerFlow: perFlow,
			Seed:           seed,
			BufferDepth:    2,
			Recovery:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Deadlocked {
			t.Fatalf("seed %d: recovery enabled but run reports deadlock at cycle %d", seed, st.DeadlockCycle)
		}
		if !st.Drained {
			t.Fatalf("seed %d: finite workload did not drain under recovery: %+v", seed, st)
		}
		want := int64(g.NumFlows() * perFlow)
		if got := st.DeliveredPackets + st.LocalPackets; got != want {
			t.Errorf("seed %d: delivered %d packets, want %d", seed, got, want)
		}
		if st.InjectedFlits != st.DeliveredFlits {
			t.Errorf("seed %d: flits injected %d != delivered %d", seed, st.InjectedFlits, st.DeliveredFlits)
		}
		totalRecoveries += st.Recoveries
	}
	if totalRecoveries == 0 {
		t.Error("no seed triggered a recovery on the cyclic ring; stress has no teeth")
	}
}

// TestSourceQueueStorageBounded pins the bounded-memory contract of
// SourceQueueCap: under sustained saturation the queue backing arrays
// must stay O(cap), not grow one slot per delivered packet.
func TestSourceQueueStorageBounded(t *testing.T) {
	top, g, tab := ringExample()
	res, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(res.Topology, g, res.Routes, Config{MaxCycles: 1 << 30, LoadFactor: 1.0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200000; i++ {
		sim.Step()
	}
	for i := range sim.flows {
		if n := len(sim.flows[i].queue); n > 64 {
			t.Errorf("flow %d: queue backing array grew to %d entries under saturation", i, n)
		}
	}
}

// --- Input-sharing contract: Simulators never mutate their inputs, so
// many of them may share one Topology/Graph/Table across goroutines.
// CI runs this under -race, which is the actual assertion. ---

func TestSimulatorsShareInputsAcrossGoroutines(t *testing.T) {
	top, g, tab := ringExample()
	res, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	stats := make([]*Stats, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the goroutines simulate the removed design, half the
			// original (which deadlocks) — both share the same inputs.
			var sim *Simulator
			var err error
			if w%2 == 0 {
				sim, err = New(res.Topology, g, res.Routes, Config{MaxCycles: 10000, LoadFactor: 1.0, Seed: int64(w + 1)})
			} else {
				sim, err = New(top, g, tab, Config{MaxCycles: 10000, LoadFactor: 1.0, Seed: int64(w + 1)})
			}
			if err != nil {
				errs[w] = err
				return
			}
			stats[w], errs[w] = sim.Run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if w%2 == 0 && stats[w].Deadlocked {
			t.Errorf("worker %d: removed design deadlocked", w)
		}
		if w%2 == 1 && !stats[w].Deadlocked {
			t.Errorf("worker %d: cyclic design did not deadlock", w)
		}
	}
}
