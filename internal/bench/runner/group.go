package runner

import (
	"context"

	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
)

// groupKey identifies a design: every job with the same key builds the
// same topology, routes, removal and ordering, so the grouped scheduler
// evaluates the design once and fans only the simulation stage out
// across the member cells. The seed participates only when the design
// itself is seed-dependent (seeded random traffic, seeded fault
// scenarios); otherwise the seeds axis varies just the injection
// process and the whole seed column shares one build.
type groupKey struct {
	benchmark string
	switches  int
	routing   string
	faults    int
	policy    string
	seeded    bool
	seed      int64
}

// designDependsOnSeed reports whether the job's design (not just its
// injection process) varies with the seed: rand: specs synthesize a
// seeded traffic graph, and faulted preset cells mask a seeded link
// selection. s is the job's benchmark spec.
func designDependsOnSeed(s spec, job Job) bool {
	if s.preset() {
		return job.Faults > 0
	}
	return s.family == "rand"
}

func keyOf(s spec, job Job) groupKey {
	k := groupKey{
		benchmark: job.Benchmark,
		switches:  job.SwitchCount,
		routing:   job.Routing,
		faults:    job.Faults,
		policy:    job.Policy,
	}
	if designDependsOnSeed(s, job) {
		k.seeded, k.seed = true, job.Seed
	}
	return k
}

// groups partitions the run's incomplete cells into design groups, in
// first-appearance order. Seeds are the innermost Jobs axis, so on a
// full grid each group is a contiguous run of cells; shard-filtered
// cells group the same way with fewer members. Cells the result cache
// already completed join no group.
func (r *sweepRun) groups() [][]int {
	byKey := map[groupKey]int{}
	var groups [][]int
	for i, j := range r.jobs {
		if r.filled[i] {
			continue
		}
		k := keyOf(r.specs[j.Benchmark], j)
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// designBuildHook, when non-nil, observes every design construction the
// grouped scheduler performs (one call per group). The cache-effectiveness
// tests hook it to assert an N-seed grid builds each design exactly once.
var designBuildHook func(Job)

// runGroup evaluates one design group: the design is built once from the
// group's first member and the simulation stage runs as one variant batch
// across the members' derived seeds (times the measurement loads, when a
// load sweep is configured). Each member's Result must be byte-identical
// to an independent evaluation of that cell, failures included; the
// per-cell oracle in oracle_test.go pins this differentially.
func (r *sweepRun) runGroup(ctx context.Context, members []int, laneParallel int) {
	jobs, results, opts, loads := r.jobs, r.results, r.opts, r.grid.Loads
	job0 := jobs[members[0]]
	emit := func(mk func(Job) Result) {
		for _, i := range members {
			results[i] = mk(jobs[i])
		}
	}

	policy, err := ParsePolicy(job0.Policy)
	if err != nil {
		emit(func(j Job) Result { return Result{Job: j, Error: err.Error()} })
		return
	}
	evalOpts := EvalOptions{
		Selection: policy,
		Policy:    opts.Policy,
		VCLimit:   opts.VCLimit,
		MaxPaths:  opts.maxPaths,
	}

	if hook := designBuildHook; hook != nil {
		hook(job0)
	}

	var de *designEval
	var cores int
	failAll := func(err error) {
		emit(func(j Job) Result {
			r := Result{Job: j, Cores: cores}
			return r.fail(err)
		})
	}
	s := r.specs[job0.Benchmark]
	if s.preset() {
		grid, g, err := s.build()
		if err != nil {
			emit(func(j Job) Result { return Result{Job: j, Error: err.Error()} })
			return
		}
		cores = g.NumCores()
		model, err := route.ParseTurnModel(job0.Routing)
		if err != nil {
			failAll(err)
			return
		}
		if job0.Faults > 0 {
			// Seeded per-cell fault scenario — the group key carries the
			// seed for faulted cells, so job0's seed is every member's.
			ids, err := regular.SelectFaults(grid, job0.Faults, job0.Seed)
			if err != nil {
				failAll(err)
				return
			}
			if err := grid.Topology.Fault(ids...); err != nil {
				failAll(err)
				return
			}
		}
		if model == route.DOR && job0.Faults == 0 {
			de, err = buildRegular(ctx, grid, g, evalOpts)
		} else {
			de, err = buildAdaptive(ctx, grid, g, model, evalOpts)
		}
		if err != nil {
			failAll(err)
			return
		}
	} else {
		g, err := s.graph(job0.Seed)
		if err != nil {
			emit(func(j Job) Result { return Result{Job: j, Error: err.Error()} })
			return
		}
		cores = g.NumCores()
		if job0.SwitchCount > cores {
			emit(func(j Job) Result { return Result{Job: j, Cores: cores, Skipped: true} })
			return
		}
		de, err = buildSynth(ctx, g, job0.SwitchCount, evalOpts)
		if err != nil {
			failAll(err)
			return
		}
	}

	// The certification, like the removal, is design-level: the checker
	// runs once per group and only the agreement check (which consults
	// each member's simulation) is derived per cell.
	var ce *certEval
	if opts.Certify {
		ce = de.certify()
	}

	base := Result{Cores: cores}
	base.Links = de.point.Links
	base.MaxRouteLen = de.point.MaxRouteLen
	base.InitialAcyclic = de.point.InitialAcyclic
	base.RemovalVCs = de.point.RemovalVCs
	base.OrderingVCs = de.point.OrderingVCs
	base.Breaks = de.point.Breaks
	base.Paths = de.point.Paths
	// The removal ran once for the whole group; every member reports its
	// wall-clock (timings are progress-only and never serialized).
	base.RemovalTime = de.point.RemovalTime

	if !opts.Simulate {
		emit(func(j Job) Result {
			r := base
			r.Job = j
			if ce != nil {
				r.Certify = ce.withSim(nil)
			}
			return r
		})
		return
	}

	// Derive the per-cell simulation seeds from the job seeds so the
	// seeds axis varies the injection process even on deterministic
	// benchmarks.
	seeds := make([]int64, len(members))
	for k, i := range members {
		seeds[k] = opts.Sim.Seed + jobs[i].Seed + 1
	}
	sims, err := de.simEvalBatch(ctx, opts.Sim, seeds, loads, laneParallel)
	if err != nil {
		failAll(err)
		return
	}
	for k, i := range members {
		r := base
		r.Job = jobs[i]
		r.Sim = sims[k]
		if ce != nil {
			r.Certify = ce.withSim(sims[k])
		}
		results[i] = r
	}
}
