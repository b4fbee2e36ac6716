package runner

// The per-cell oracle the grouped scheduler is pinned against: every cell
// evaluated in isolation, with its own design build, its own certification
// and one sequentially run simulator per verification step. The grouped
// path (runGroup, simEvalBatch) must reproduce it cell for cell
// (TestGroupedSweepMatchesPerCell).

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// runJob evaluates one grid point in isolation. All failure modes are
// folded into the result so one bad point cannot sink a long sweep; a
// cancellation surfacing from the evaluation marks the result canceled
// rather than errored.
func runJob(ctx context.Context, job Job, opts Options) Result {
	res := Result{Job: job}
	policy, err := ParsePolicy(job.Policy)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	evalOpts := EvalOptions{
		Selection: policy,
		Policy:    opts.Policy,
		VCLimit:   opts.VCLimit,
		MaxPaths:  opts.maxPaths,
	}

	var de *designEval
	s, err := parseSpec(job.Benchmark)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	if s.preset() {
		grid, g, err := s.build()
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.Cores = g.NumCores()
		model, err := route.ParseTurnModel(job.Routing)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		if job.Faults > 0 {
			ids, err := regular.SelectFaults(grid, job.Faults, job.Seed)
			if err != nil {
				res.Error = err.Error()
				return res
			}
			if err := grid.Topology.Fault(ids...); err != nil {
				res.Error = err.Error()
				return res
			}
		}
		if model == route.DOR && job.Faults == 0 {
			de, err = buildRegular(ctx, grid, g, evalOpts)
		} else {
			de, err = buildAdaptive(ctx, grid, g, model, evalOpts)
		}
		if err != nil {
			return res.fail(err)
		}
	} else {
		g, err := s.graph(job.Seed)
		if err != nil {
			res.Error = err.Error()
			return res
		}
		res.Cores = g.NumCores()
		if job.SwitchCount > g.NumCores() {
			res.Skipped = true
			return res
		}
		if de, err = buildSynth(ctx, g, job.SwitchCount, evalOpts); err != nil {
			return res.fail(err)
		}
	}

	if opts.Simulate {
		// Derive the simulation seed from the job seed so the seeds axis
		// varies the injection process even on deterministic benchmarks.
		params := opts.Sim
		params.Seed = opts.Sim.Seed + job.Seed + 1
		sim, err := de.simEval(ctx, params)
		if err != nil {
			return res.fail(err)
		}
		res.Sim = sim
	}
	if opts.Certify {
		res.Certify = de.certify().withSim(res.Sim)
	}
	p := de.point
	res.Links = p.Links
	res.MaxRouteLen = p.MaxRouteLen
	res.InitialAcyclic = p.InitialAcyclic
	res.RemovalVCs = p.RemovalVCs
	res.OrderingVCs = p.OrderingVCs
	res.Breaks = p.Breaks
	res.Paths = p.Paths
	res.RemovalTime = p.RemovalTime
	return res
}

// newSim builds a single simulator over one of the design's two halves.
// A non-nil set replaces an adaptive design's route set.
func (de *designEval) newSim(pre bool, set *route.RouteSet, w *traffic.Graph, cfg wormhole.Config) (*wormhole.Simulator, error) {
	top, tab, half := de.postTop, de.postTab, de.postSet
	if pre {
		top, tab, half = de.preTop, de.preTab, de.preSet
	}
	if set == nil {
		set = half
	}
	if de.adaptive {
		return wormhole.NewAdaptive(top, w, set, cfg)
	}
	return wormhole.New(top, w, tab, cfg)
}

// simEval is the sequential verification stage for one cell: the negative
// control on the pre-removal design under the constructed witness (when
// the CDG was cyclic) with the saturated flows pinned to their cycle
// paths, the identical witness traffic on the post-removal design, then
// the plain measurement run.
func (de *designEval) simEval(ctx context.Context, params SimParams) (*SimResult, error) {
	params = params.withDefaults()
	res := &SimResult{}
	cfg := wormhole.Config{
		MaxCycles:   params.Cycles,
		LoadFactor:  params.Load,
		BufferDepth: params.BufferDepth,
		Seed:        params.Seed,
		Adaptive:    params.Adaptive,
	}

	if !de.initialAcyclic {
		w, pinned, nflows, err := de.witness()
		if err != nil {
			return nil, fmt.Errorf("runner: witness workload: %w", err)
		}
		if w != nil {
			res.PreRan = true
			res.WitnessFlows = nflows
			// The witness runs always pin load 1, whatever -sim-load says.
			witnessCfg := cfg
			witnessCfg.LoadFactor = 1.0
			pre, err := de.newSim(true, pinned, w, witnessCfg)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			st, err := pre.RunContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("runner: pre-removal sim: %w", err)
			}
			res.PreDeadlock = st.Deadlocked
			res.PreDeadlockCycle = st.DeadlockCycle

			postW, err := de.newSim(false, nil, w, witnessCfg)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			wst, err := postW.RunContext(ctx)
			if err != nil {
				return nil, fmt.Errorf("runner: post-removal witness sim: %w", err)
			}
			res.PostDeadlock = wst.Deadlocked
		}
	}

	postCfg := cfg
	postCfg.CollectLatencies = true
	post, err := de.newSim(false, nil, de.g, postCfg)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	st, err := post.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("runner: post-removal sim: %w", err)
	}
	res.PostDeadlock = res.PostDeadlock || st.Deadlocked
	res.PostDelivered = st.DeliveredPackets
	res.PostAvgLatency = st.AvgLatency()
	res.PostP50 = st.LatencyPercentile(50)
	res.PostP95 = st.LatencyPercentile(95)
	res.PostP99 = st.LatencyPercentile(99)
	res.PostThroughput = st.ThroughputFlitsPerCycle()
	return res, nil
}
