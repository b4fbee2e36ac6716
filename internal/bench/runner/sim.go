package runner

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// SimParams configures the flit-level verification stage of a sweep.
// Zero-valued fields pick defaults chosen to provoke deadlocks: saturation
// load and shallow buffers over a 20k-cycle horizon.
type SimParams struct {
	// Cycles is the simulation horizon per run. Default 20000.
	Cycles int64
	// Load is the injection load factor in (0, 1]. Default 1.0
	// (saturation — the regime where cyclic designs actually deadlock).
	Load float64
	// BufferDepth is the per-VC buffer depth in flits. Default 2.
	BufferDepth int
	// Seed drives the injection process.
	Seed int64
	// Adaptive is the per-hop output-selection policy for adaptive
	// cells (first-free or least-congested); single-path cells ignore it.
	Adaptive wormhole.AdaptiveSelection
}

func (p SimParams) withDefaults() SimParams {
	if p.Cycles == 0 {
		p.Cycles = 20000
	}
	if p.Load == 0 {
		p.Load = 1.0
	}
	if p.BufferDepth == 0 {
		p.BufferDepth = 2
	}
	return p
}

// config is the simulator configuration of p's canonical measurement.
func (p SimParams) config() wormhole.Config {
	p = p.withDefaults()
	return wormhole.Config{
		MaxCycles:   p.Cycles,
		LoadFactor:  p.Load,
		BufferDepth: p.BufferDepth,
		Adaptive:    p.Adaptive,
	}
}

// ValidateSim returns the error a simulated sweep of the valid grid g
// fails with on p, so that the sweep can be refused before any cell runs
// or any shard is dispatched: an unusable parameter, a buffer deeper than
// wormhole.MaxBufferDepth, or more measurement lanes than
// wormhole.MaxLanes, one per cell and load with the canonical load
// counted (each wrapping nocerr.ErrInvalidInput).
func ValidateSim(g Grid, p SimParams) error {
	if err := wormhole.CheckConfig(p.config(), 0); err != nil {
		return err
	}
	g = g.normalized()
	presets := 0
	for _, b := range g.Benchmarks {
		if s, _ := parseSpec(b); s.preset() {
			presets++
		}
	}
	cells, _ := g.cellCount(presets)
	if _, err := wormhole.CheckLanes(cells, 1+len(g.Loads)); err != nil {
		return fmt.Errorf("runner: simulated sweep: %w", err)
	}
	return nil
}

// SimResult is the flit-level verification outcome of one grid cell: the
// negative control (the pre-removal design must deadlock under the
// constructed witness workload if its CDG was cyclic), the post-removal
// verdict (must never deadlock, neither under the witness nor under plain
// load), and the post-removal service metrics. All fields are pure
// functions of the cell spec and seed, so they serialize
// deterministically.
type SimResult struct {
	// PreRan reports whether the negative control ran; it is skipped when
	// the initial CDG is already acyclic (no deadlock to provoke).
	PreRan bool `json:"pre_ran"`
	// WitnessFlows is how many flows the constructed witness workload
	// saturates (the flows inducing the CDG's smallest cycle).
	WitnessFlows int `json:"witness_flows,omitempty"`
	// PreDeadlock is the negative control: true means the unmodified
	// design deadlocked under the witness workload, demonstrating the
	// hazard the removal algorithm exists to eliminate.
	PreDeadlock      bool  `json:"pre_deadlock"`
	PreDeadlockCycle int64 `json:"pre_deadlock_cycle,omitempty"`

	// PostDeadlock must be false: the post-removal design simulated under
	// the identical witness workload and under the plain measurement
	// load.
	PostDeadlock bool `json:"post_deadlock"`

	// Post-removal service metrics at the configured load.
	PostDelivered  int64   `json:"post_delivered"`
	PostAvgLatency float64 `json:"post_avg_latency"`
	PostP50        int64   `json:"post_p50_latency"`
	PostP95        int64   `json:"post_p95_latency"`
	PostP99        int64   `json:"post_p99_latency"`
	// PostThroughput is delivered flits per cycle — the saturation
	// throughput when Load is 1.
	PostThroughput float64 `json:"post_throughput_flits_per_cycle"`

	// LoadSweep holds the post-removal design's measurement points over
	// the grid's Loads axis, ascending by load (only when Grid.Loads was
	// set — legacy reports never carry the field).
	LoadSweep []LoadPoint `json:"load_sweep,omitempty"`
}

// witnessFlits is the packet length of the witness workload's saturated
// flows: long worms span several channels, so the constructed cycle's
// holdings actually interlock.
const witnessFlits = 16

// witnessWorkloadSet constructs the adversarial counterexample for a cyclic
// design: it finds the union CDG's smallest cycle, identifies the flows
// whose candidate paths induce its dependency edges, and returns a copy
// of the traffic graph in which exactly those flows inject saturated
// long-packet traffic while every other flow is throttled to near
// silence. A blind saturation run almost never trips an
// application-specific design's cycle (the involved flows are usually
// low-bandwidth); driving the inducing flows directly makes the latent
// hazard manifest within a short horizon.
//
// It also returns the route set the pre-removal run uses: each saturated
// flow keeps only its candidate paths that induce a cycle edge, every
// other flow keeps its whole set. Left free, adaptive heads would route
// around the cycle the certificate names; pinned, they drive exactly the
// dependencies the union CDG (and with it removal and the checker)
// assumes a packet may take. A single-path design is a one-path set, for
// which the pinned set is the design's own. The last return value is the
// number of saturated flows; a nil graph means the CDG is acyclic.
func witnessWorkloadSet(g *traffic.Graph, top *topology.Topology, set *route.RouteSet) (*traffic.Graph, *route.RouteSet, int, error) {
	c, refs, err := cdg.BuildSet(top, set)
	if err != nil {
		return nil, nil, 0, err
	}
	cyc := c.SmallestCycle()
	if len(cyc) == 0 {
		return nil, nil, 0, nil
	}
	hot := map[int]map[int]bool{} // flow ID → indices of its cycle-inducing paths
	for i := range cyc {
		for _, pf := range c.FlowsOn(cyc[i], cyc[(i+1)%len(cyc)]) {
			ref := refs[pf]
			if hot[ref.FlowID] == nil {
				hot[ref.FlowID] = map[int]bool{}
			}
			hot[ref.FlowID][ref.Index] = true
		}
	}
	pinned := route.NewRouteSet(set.NumFlows())
	for f := 0; f < set.NumFlows(); f++ {
		for i, p := range route.PathsOf(set, f) {
			if paths, ok := hot[f]; !ok || paths[i] {
				pinned.Add(f, p)
			}
		}
	}
	// Rebuild the graph flow by flow in ID order so flow IDs (and with
	// them the route mapping) are preserved.
	w := traffic.NewGraph(g.Name + "_witness")
	for range g.Cores() {
		w.AddCore("")
	}
	for _, f := range g.Flows() {
		bw, flits := 0.001, f.PacketFlits
		if hot[f.ID] != nil {
			bw, flits = 100, witnessFlits
		}
		id, err := w.AddFlow(f.Src, f.Dst, bw)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := w.SetPacketFlits(id, flits); err != nil {
			return nil, nil, 0, err
		}
	}
	return w, pinned, len(hot), nil
}

// witness is witnessWorkloadSet over the pre-removal design, a table lifted
// to its one-path set.
func (de *designEval) witness() (*traffic.Graph, *route.RouteSet, int, error) {
	set := de.preSet
	if !de.adaptive {
		set = route.FromTable(de.preTab)
	}
	return witnessWorkloadSet(de.g, de.preTop, set)
}

// newBatch builds a variant batch over one of the design's two halves.
// A non-nil set replaces an adaptive design's route set.
func (de *designEval) newBatch(pre bool, set *route.RouteSet, w *traffic.Graph, cfg wormhole.Config, vs []wormhole.Variant) (*wormhole.Batch, error) {
	top, tab, half := de.postTop, de.postTab, de.postSet
	if pre {
		top, tab, half = de.preTop, de.preTab, de.preSet
	}
	if set == nil {
		set = half
	}
	if de.adaptive {
		return wormhole.NewAdaptiveBatch(top, w, set, cfg, vs)
	}
	return wormhole.NewBatch(top, w, tab, cfg, vs)
}

// simEvalBatch is the flit-level verification stage of a design group.
// For a cyclic design it constructs the witness workload and simulates it
// on both the pre-removal design (negative control: must deadlock to
// demonstrate the hazard) and the post-removal design (must survive the
// identical adversarial workload); the post-removal design also runs the
// plain workload at params.Load for latency percentiles and throughput.
// Each of the three is one variant batch across the group's per-cell
// seeds, built in that order, and all three run from one lane queue,
// measurement first since its lanes are the longest. Each cell's outcome
// is byte-identical to simulating that cell alone (the grouped-sweep
// differential pins this). When loads is non-empty, the measurement
// batch additionally carries one lane per (seed, load) pair and the extra
// points land in each cell's LoadSweep, leaving the canonical params.Load
// measurement untouched.
func (de *designEval) simEvalBatch(ctx context.Context, params SimParams, seeds []int64, loads []float64, parallel int) ([]*SimResult, error) {
	params = params.withDefaults()
	results := make([]*SimResult, len(seeds))
	for i := range results {
		results[i] = &SimResult{}
	}
	cfg := params.config()
	// One witness lane per seed. A seed of 0 normalizes to the base
	// config's defaulted seed inside the batch — the same fallback a
	// zero Config.Seed gets from a single simulator.
	witnessVs := make([]wormhole.Variant, len(seeds))
	for i, s := range seeds {
		witnessVs[i] = wormhole.Variant{Seed: s}
	}

	var witness []*wormhole.Batch // pre-removal, then post-removal
	nflows := 0
	if !de.res.InitialAcyclic {
		w, pinned, n, err := de.witness()
		if err != nil {
			return nil, fmt.Errorf("runner: witness workload: %w", err)
		}
		if w != nil {
			// The witness's point is to saturate the cycle-inducing
			// flows; a sub-saturation -sim-load must not de-fang the
			// negative control, so the witness runs always pin load 1.
			witnessCfg := cfg
			witnessCfg.LoadFactor = 1.0
			pre, err := de.newBatch(true, pinned, w, witnessCfg, witnessVs)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			postW, err := de.newBatch(false, nil, w, witnessCfg, witnessVs)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			witness, nflows = []*wormhole.Batch{pre, postW}, n
		}
	}

	// Measurement lanes, seed-major: each seed's canonical params.Load
	// run followed by its load-sweep points.
	stride := 1 + len(loads)
	measureVs := make([]wormhole.Variant, 0, len(seeds)*stride)
	for _, s := range seeds {
		measureVs = append(measureVs, wormhole.Variant{Seed: s, Load: params.Load})
		for _, l := range loads {
			measureVs = append(measureVs, wormhole.Variant{Seed: s, Load: l})
		}
	}
	postCfg := cfg
	postCfg.CollectLatencies = true
	post, err := de.newBatch(false, nil, de.g, postCfg, measureVs)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	out, err := wormhole.RunBatches(ctx, parallel, append([]*wormhole.Batch{post}, witness...)...)
	if err != nil {
		return nil, fmt.Errorf("runner: simulation: %w", err)
	}
	if witness != nil {
		preStats, wStats := out[1], out[2]
		for i, res := range results {
			res.PreRan = true
			res.WitnessFlows = nflows
			res.PreDeadlock = preStats[i].Deadlocked
			res.PreDeadlockCycle = preStats[i].DeadlockCycle
			res.PostDeadlock = wStats[i].Deadlocked
		}
	}
	stats := out[0]
	for i, res := range results {
		st := stats[i*stride]
		res.PostDeadlock = res.PostDeadlock || st.Deadlocked
		res.PostDelivered = st.DeliveredPackets
		res.PostAvgLatency = st.AvgLatency()
		res.PostP50 = st.LatencyPercentile(50)
		res.PostP95 = st.LatencyPercentile(95)
		res.PostP99 = st.LatencyPercentile(99)
		res.PostThroughput = st.ThroughputFlitsPerCycle()
		for j, l := range loads {
			lst := stats[i*stride+1+j]
			res.LoadSweep = append(res.LoadSweep, LoadPoint{
				Load:       l,
				Deadlock:   lst.Deadlocked,
				Delivered:  lst.DeliveredPackets,
				AvgLatency: lst.AvgLatency(),
				P50:        lst.LatencyPercentile(50),
				P95:        lst.LatencyPercentile(95),
				P99:        lst.LatencyPercentile(99),
				Throughput: lst.ThroughputFlitsPerCycle(),
			})
		}
	}
	return results, nil
}
