package main

// The traced pass of the local workloads. It cannot time the layers from
// inside Session.Sweep, so it replays the runner's per-cell pipeline itself,
// calling each layer's public function in the runner's order and recording
// a span around every call. The replayed report must be byte-identical to
// the untraced one for the same op (the harness checks its digest), or the
// traced pass would be measuring a different program.

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"time"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// design is one built and removed design: the runner's design-group unit.
// Exactly one of the table pair and the route-set pair is set.
type design struct {
	g               *traffic.Graph
	preTop, postTop *topology.Topology
	preTab, postTab *route.Table
	preSet, postSet *route.RouteSet
	// base holds the cell fields every member of the group shares.
	base runner.Result
}

var (
	randSpec   = regexp.MustCompile(`^rand:(\d+)x(\d+)$`)
	presetSpec = regexp.MustCompile(`^(mesh|torus):(\d+)x(\d+)(?::uniform)?$`)
)

// replaySweep evaluates every cell of grid the way runner.RunContext does:
// cells that share a design form one group, up to parallel groups run at
// once, and the leftover parallelism goes to each group's simulation lanes.
func replaySweep(ctx context.Context, tr *tracer, grid nocdr.SweepGrid, parallel int, opts nocdr.SweepOptions) (*nocdr.SweepReport, error) {
	jobs := grid.Jobs()
	var groups [][]int
	byDesign := map[runner.Job]int{}
	for i, j := range jobs {
		k := j
		if !designDependsOnSeed(j) {
			k.Seed = 0
		}
		gi, ok := byDesign[k]
		if !ok {
			gi = len(groups)
			byDesign[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	workers := min(max(parallel, 1), len(groups))
	lanes := 1
	if workers > 0 && parallel/workers > 1 {
		lanes = parallel / workers
	}

	results := make([]runner.Result, len(jobs))
	errs := make([]error, len(groups))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range next {
				errs[gi] = replayGroup(ctx, tr, jobs, groups[gi], results, opts, lanes)
			}
		}()
	}
	for gi := range groups {
		next <- gi
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &nocdr.SweepReport{Grid: grid, Results: results}, nil
}

// designDependsOnSeed mirrors the runner's grouping rule: seeded random
// traffic and seeded fault scenarios build a different design per seed.
func designDependsOnSeed(j runner.Job) bool {
	if presetSpec.MatchString(j.Benchmark) {
		return j.Faults > 0
	}
	return randSpec.MatchString(j.Benchmark)
}

// replayGroup builds the group's design once, certifies it, simulates every
// member's seed as one batch and fills the members' result slots.
func replayGroup(ctx context.Context, tr *tracer, jobs []runner.Job, members []int, results []runner.Result, opts nocdr.SweepOptions, lanes int) error {
	job0 := jobs[members[0]]
	d, err := buildDesign(ctx, tr, job0)
	if err != nil {
		return fmt.Errorf("replay %s: %w", job0.Key(), err)
	}
	cells := float64(len(members))
	tr.probe(func() error { return probeCDG(tr, d, cells) })

	var cert *certEval
	if opts.Certify {
		cert = certifyDesign(tr, d)
	}
	sims := make([]*runner.SimResult, len(members))
	if opts.Simulate {
		seeds := make([]int64, len(members))
		for k, i := range members {
			seeds[k] = jobs[i].Seed + 1
		}
		if sims, err = simulateDesign(ctx, tr, d, seeds, lanes); err != nil {
			return fmt.Errorf("replay %s: %w", job0.Key(), err)
		}
	}
	for k, i := range members {
		r := d.base
		r.Job = jobs[i]
		r.Sim = sims[k]
		if cert != nil {
			r.Certify = cert.withSim(sims[k])
		}
		results[i] = r
	}
	return nil
}

// buildDesign runs the design half of a cell: routes (or synthesis),
// removal and the ordering baseline.
func buildDesign(ctx context.Context, tr *tracer, job runner.Job) (*design, error) {
	if m := presetSpec.FindStringSubmatch(job.Benchmark); m != nil {
		return buildPreset(ctx, tr, job, m[1] == "torus", atoi(m[2]), atoi(m[3]))
	}
	var g *traffic.Graph
	if m := randSpec.FindStringSubmatch(job.Benchmark); m != nil {
		g = traffic.RandomKOut(fmt.Sprintf("%s#%d", job.Benchmark, job.Seed), atoi(m[1]), atoi(m[2]), job.Seed)
	} else {
		var err error
		if g, err = traffic.ByName(job.Benchmark); err != nil {
			return nil, err
		}
	}
	if job.SwitchCount > g.NumCores() {
		return nil, fmt.Errorf("switch count %d exceeds %d cores", job.SwitchCount, g.NumCores())
	}
	var des *synth.Result
	err := tr.timed("synth", func() (err error) {
		des, err = synth.SynthesizeContext(ctx, g, synth.Options{SwitchCount: job.SwitchCount})
		return err
	})
	if err != nil {
		return nil, err
	}
	return removeTable(ctx, tr, g, des.Topology, des.Routes)
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s) // the regexp admits digits only
	return n
}

// buildPreset builds a uniform-traffic mesh or torus cell: dimension-order
// routes when fault-free under DOR, turn-model route sets otherwise.
func buildPreset(ctx context.Context, tr *tracer, job runner.Job, wrap bool, cols, rows int) (*design, error) {
	var grid *regular.Grid
	var err error
	if wrap {
		grid, err = regular.Torus(cols, rows)
	} else {
		grid, err = regular.Mesh(cols, rows)
	}
	if err != nil {
		return nil, err
	}
	n := cols * rows
	g, err := regular.UniformTraffic(n, n/2, 100)
	if err != nil {
		return nil, err
	}
	model, err := route.ParseTurnModel(job.Routing)
	if err != nil {
		return nil, err
	}
	top := grid.Topology
	if job.Faults > 0 {
		err := tr.timed("route.faults", func() error {
			ids, err := regular.SelectFaults(grid, job.Faults, job.Seed)
			if err != nil {
				return err
			}
			return top.Fault(ids...)
		})
		if err != nil {
			return nil, err
		}
	}
	if model == route.DOR && job.Faults == 0 {
		var tab *route.Table
		err := tr.timed("route.dor", func() (err error) {
			tab, err = regular.DORRoutes(grid, g)
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("route.paths", float64(tab.NumFlows()))
		return removeTable(ctx, tr, g, top, tab)
	}

	var set *route.RouteSet
	err = tr.timed("route.grid", func() (err error) {
		set, err = route.GridRoutes(top, g, grid.Spec(), model, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("route.paths", float64(set.TotalPaths()))
	breaks := 0
	var rm *core.SetResult
	err = tr.timed("core", func() (err error) {
		rm, err = core.RemoveSetContext(ctx, top, set, core.Options{OnBreak: func(core.BreakRecord) { breaks++ }})
		return err
	})
	if err != nil {
		return nil, err
	}
	var ro *ordering.Result
	err = tr.timed("ordering", func() (err error) {
		flat, _ := set.Flatten()
		ro, err = ordering.Apply(top, flat, ordering.HopIndex)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("core.breaks", float64(breaks))
	tr.add("core.vcs", float64(rm.AddedVCs))
	return &design{
		g: g, preTop: top, postTop: rm.Topology, preSet: set, postSet: rm.Routes,
		base: runner.Result{
			Cores: g.NumCores(), Links: top.NumLinks(), MaxRouteLen: set.MaxLen(),
			InitialAcyclic: rm.InitialAcyclic, RemovalVCs: rm.AddedVCs, OrderingVCs: ro.AddedVCs,
			Breaks: breaks, Paths: set.TotalPaths(),
		},
	}, nil
}

// removeTable runs removal and the ordering baseline on a single-path
// design. Breaks are counted through Options.OnBreak; the fidelity check
// compares that count with the untraced report's.
func removeTable(ctx context.Context, tr *tracer, g *traffic.Graph, top *topology.Topology, tab *route.Table) (*design, error) {
	breaks := 0
	var rm *core.Result
	err := tr.timed("core", func() (err error) {
		rm, err = core.RemoveContext(ctx, top, tab, core.Options{OnBreak: func(core.BreakRecord) { breaks++ }})
		return err
	})
	if err != nil {
		return nil, err
	}
	var ro *ordering.Result
	err = tr.timed("ordering", func() (err error) {
		ro, err = ordering.Apply(top, tab, ordering.HopIndex)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("core.breaks", float64(breaks))
	tr.add("core.vcs", float64(rm.AddedVCs))
	return &design{
		g: g, preTop: top, postTop: rm.Topology, preTab: tab, postTab: rm.Routes,
		base: runner.Result{
			Cores: g.NumCores(), Links: top.NumLinks(), MaxRouteLen: tab.MaxLen(),
			InitialAcyclic: rm.InitialAcyclic, RemovalVCs: rm.AddedVCs, OrderingVCs: ro.AddedVCs,
			Breaks: breaks,
		},
	}, nil
}

// probeCDG times the CDG build and smallest-cycle search of the group's
// input design. It runs after the op, so it never counts as op time.
func probeCDG(tr *tracer, d *design, cells float64) error {
	start := time.Now()
	var deps int
	if d.preSet != nil {
		c, _, err := cdg.BuildSet(d.preTop, d.preSet)
		if err != nil {
			return err
		}
		c.SmallestCycle()
		deps = c.NumDependencies()
	} else {
		m, err := cdg.BuildIncremental(d.preTop, d.preTab)
		if err != nil {
			return err
		}
		m.SmallestCycle()
		deps = m.NumDependencies()
	}
	// A group's CDG serves every member cell, as its removal does.
	tr.add("cdg.build_ns", float64(time.Since(start)))
	tr.add("cdg.deps", float64(deps)*cells)
	return nil
}

// certEval is a design's certified verdicts; withSim derives a member
// cell's CertResult, exactly as the runner's certification stage does.
type certEval struct {
	err                     string
	preAcyclic, postAcyclic bool
	preCycleLen             int
	postSHA                 string
	initialAcyclic          bool
}

func certifyDesign(tr *tracer, d *design) *certEval {
	ce := &certEval{initialAcyclic: d.base.InitialAcyclic}
	pre, err := checkDesign(tr, d.preTop, d.preTab, d.preSet, "pre")
	if err != nil {
		ce.err = fmt.Sprintf("pre design: %v", err)
		return ce
	}
	ce.preAcyclic, ce.preCycleLen = pre.Acyclic, len(pre.Cycle)
	post, err := checkDesign(tr, d.postTop, d.postTab, d.postSet, "post")
	if err != nil {
		ce.err = fmt.Sprintf("post design: %v", err)
		return ce
	}
	ce.postAcyclic, ce.postSHA = post.Acyclic, post.DesignSHA256
	return ce
}

func (ce *certEval) withSim(sim *runner.SimResult) *runner.CertResult {
	c := &runner.CertResult{
		Salt: certify.Salt, PreAcyclic: ce.preAcyclic, PreCycleLen: ce.preCycleLen,
		PostAcyclic: ce.postAcyclic, PostSHA256: ce.postSHA,
	}
	switch {
	case ce.err != "":
		c.Mismatch = ce.err
	case ce.preAcyclic != ce.initialAcyclic:
		c.Mismatch = fmt.Sprintf("pre design: checker says acyclic=%v, removal says %v", ce.preAcyclic, ce.initialAcyclic)
	case !ce.postAcyclic:
		c.Mismatch = "post design: checker found a dependency cycle after removal"
	case sim != nil && sim.PreRan && !ce.preAcyclic && !sim.PreDeadlock:
		c.Mismatch = "pre design: certified cycle witness did not deadlock in simulation"
	case sim != nil && sim.PostDeadlock:
		c.Mismatch = "post design: simulation deadlocked on a certified-acyclic design"
	default:
		c.Agree = true
	}
	return c
}

// checkDesign encodes the design bundle the checker reads, then certifies
// it and validates the witness.
func checkDesign(tr *tracer, top *topology.Topology, tab *route.Table, set *route.RouteSet, mode string) (*certify.Certificate, error) {
	var doc []byte
	err := tr.timed("certify.encode", func() error {
		topRaw, err := json.Marshal(top)
		if err != nil {
			return err
		}
		var routesRaw []byte
		if set != nil {
			routesRaw, err = json.Marshal(set)
		} else {
			routesRaw, err = json.Marshal(tab)
		}
		if err != nil {
			return err
		}
		doc, err = json.Marshal(struct {
			Topology json.RawMessage `json:"topology"`
			Routes   json.RawMessage `json:"routes"`
		}{topRaw, routesRaw})
		return err
	})
	if err != nil {
		return nil, err
	}
	var cert *certify.Certificate
	err = tr.timed("certify.check", func() (err error) {
		if cert, err = certify.Check(doc, mode); err != nil {
			return err
		}
		return certify.Validate(cert, doc)
	})
	return cert, err
}

// Default sweep simulation parameters (runner.SimParams zero values).
const (
	simCycles = 20000
	simLoad   = 1.0
	simDepth  = 2
	// witnessFlits is the packet length of the witness workload's
	// saturated flows.
	witnessFlits = 16
)

// simulateDesign runs the verification stage as the runner batches it: a
// witness run on the pre-removal design (negative control) and on the
// post-removal design when the input CDG is cyclic, then the measurement
// run, each one lane per seed.
func simulateDesign(ctx context.Context, tr *tracer, d *design, seeds []int64, lanes int) ([]*runner.SimResult, error) {
	res := make([]*runner.SimResult, len(seeds))
	for i := range res {
		res[i] = &runner.SimResult{}
	}
	cfg := wormhole.Config{MaxCycles: simCycles, LoadFactor: simLoad, BufferDepth: simDepth}
	vs := make([]wormhole.Variant, len(seeds))
	for i, s := range seeds {
		vs[i] = wormhole.Variant{Seed: s}
	}
	if !d.base.InitialAcyclic {
		var w *traffic.Graph
		var hot int
		err := tr.timed("wormhole.witness", func() (err error) {
			w, hot, err = witness(d)
			return err
		})
		if err != nil {
			return nil, err
		}
		if w != nil {
			pre, err := runBatch(ctx, tr, d, true, w, cfg, vs, lanes)
			if err != nil {
				return nil, err
			}
			post, err := runBatch(ctx, tr, d, false, w, cfg, vs, lanes)
			if err != nil {
				return nil, err
			}
			for i, r := range res {
				r.PreRan = true
				r.WitnessFlows = hot
				r.PreDeadlock = pre[i].Deadlocked
				r.PreDeadlockCycle = pre[i].DeadlockCycle
				r.PostDeadlock = post[i].Deadlocked
			}
		}
	}
	measure := make([]wormhole.Variant, len(seeds))
	for i, s := range seeds {
		measure[i] = wormhole.Variant{Seed: s, Load: simLoad}
	}
	mcfg := cfg
	mcfg.CollectLatencies = true
	stats, err := runBatch(ctx, tr, d, false, d.g, mcfg, measure, lanes)
	if err != nil {
		return nil, err
	}
	for i, r := range res {
		st := stats[i]
		r.PostDeadlock = r.PostDeadlock || st.Deadlocked
		r.PostDelivered = st.DeliveredPackets
		r.PostAvgLatency = st.AvgLatency()
		r.PostP50 = st.LatencyPercentile(50)
		r.PostP95 = st.LatencyPercentile(95)
		r.PostP99 = st.LatencyPercentile(99)
		r.PostThroughput = st.ThroughputFlitsPerCycle()
	}
	return res, nil
}

// runBatch builds and runs one lockstep batch over the pre- or post-removal
// design, counting simulated cycles, delivered flits and deadlocked lanes.
func runBatch(ctx context.Context, tr *tracer, d *design, pre bool, g *traffic.Graph, cfg wormhole.Config, vs []wormhole.Variant, lanes int) ([]*wormhole.Stats, error) {
	top, tab, set := d.postTop, d.postTab, d.postSet
	if pre {
		top, tab, set = d.preTop, d.preTab, d.preSet
	}
	var b *wormhole.Batch
	err := tr.timed("wormhole.build", func() (err error) {
		if set != nil {
			b, err = wormhole.NewAdaptiveBatch(top, g, set, cfg, vs)
		} else {
			b, err = wormhole.NewBatch(top, g, tab, cfg, vs)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	var stats []*wormhole.Stats
	err = tr.timed("wormhole.run", func() (err error) {
		stats, err = b.RunContext(ctx, lanes)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		tr.add("wormhole.cycles", float64(st.Cycles))
		tr.add("wormhole.flits", float64(st.DeliveredFlits))
		if st.Deadlocked {
			tr.add("wormhole.deadlocked", 1)
		}
	}
	return stats, nil
}

// witness builds the runner's adversarial workload for a cyclic design:
// the flows inducing the CDG's smallest cycle inject saturated long packets
// and every other flow is throttled to near silence. A nil graph means the
// CDG is acyclic.
func witness(d *design) (*traffic.Graph, int, error) {
	var c *cdg.CDG
	var refs []route.PathRef
	var err error
	if d.preSet != nil {
		c, refs, err = cdg.BuildSet(d.preTop, d.preSet)
	} else {
		c, err = cdg.Build(d.preTop, d.preTab)
	}
	if err != nil {
		return nil, 0, err
	}
	cyc := c.SmallestCycle()
	if len(cyc) == 0 {
		return nil, 0, nil
	}
	hot := map[int]bool{}
	for i := range cyc {
		for _, f := range c.FlowsOn(cyc[i], cyc[(i+1)%len(cyc)]) {
			if refs != nil {
				f = refs[f].FlowID
			}
			hot[f] = true
		}
	}
	w := traffic.NewGraph(d.g.Name + "_witness")
	for range d.g.Cores() {
		w.AddCore("")
	}
	for _, f := range d.g.Flows() {
		bw, flits := 0.001, f.PacketFlits
		if hot[f.ID] {
			bw, flits = 100, witnessFlits
		}
		id, err := w.AddFlow(f.Src, f.Dst, bw)
		if err != nil {
			return nil, 0, err
		}
		if err := w.SetPacketFlits(id, flits); err != nil {
			return nil, 0, err
		}
	}
	return w, len(hot), nil
}
