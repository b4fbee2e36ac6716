package runner

import (
	"context"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
)

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

// designKey is the job with its seed cleared: the identity of a load
// curve, and of a design group unless the design depends on the seed.
func designKey(job Job) Job {
	job.Seed = 0
	return job
}

// groups partitions the run's incomplete cells into design groups, in
// first-appearance order: every job of a group builds the same topology,
// routes, removal and ordering, so the grouped scheduler evaluates the
// design once and fans only the simulation stage out across the member
// cells. A group is a designKey, or a whole job when its design depends
// on the seed; otherwise the seeds axis varies just the injection
// process and the whole seed column shares one build. Seeds are the
// innermost Jobs axis, so on a full grid each group is a contiguous run
// of cells; shard-filtered cells group the same way with fewer members.
// Cells the result cache already completed join no group.
func (r *sweepRun) groups() [][]int {
	byKey := map[Job]int{}
	var groups [][]int
	for i, j := range r.jobs {
		if r.filled[i] {
			continue
		}
		k := j
		if !designDependsOnSeed(r.specs[j.Benchmark], j) {
			k = designKey(j)
		}
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

	var cores int
	failAll := func(err error) {
		emit(func(j Job) Result {
			r := Result{Job: j, Cores: cores}
			return r.fail(err)
		})
	}

	policy, err := ParsePolicy(job0.Policy)
	if err != nil {
		failAll(err)
		return
	}
	removal := core.Options{Selection: policy, Policy: opts.Policy, VCLimit: opts.VCLimit}

	if hook := designBuildHook; hook != nil {
		hook(job0)
	}

	var de *designEval
	s := r.specs[job0.Benchmark]
	if s.preset() {
		grid, g, err := s.build()
		if err != nil {
			failAll(err)
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
			de, err = buildRegular(ctx, grid, g, removal)
		} else {
			de, err = buildAdaptive(ctx, grid, g, model, opts.maxPaths, removal)
		}
		if err != nil {
			failAll(err)
			return
		}
	} else {
		g, err := s.graph(job0.Seed)
		if err != nil {
			failAll(err)
			return
		}
		cores = g.NumCores()
		if job0.SwitchCount > cores {
			emit(func(j Job) Result { return Result{Job: j, Cores: cores, Skipped: true} })
			return
		}
		de, err = buildSynth(ctx, g, job0.SwitchCount, removal)
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

	var sims []*SimResult
	if opts.Simulate {
		// Derive the per-cell simulation seeds from the job seeds so the
		// seeds axis varies the injection process even on deterministic
		// benchmarks.
		seeds := make([]int64, len(members))
		for k, i := range members {
			seeds[k] = opts.Sim.Seed + jobs[i].Seed + 1
		}
		if sims, err = de.simEvalBatch(ctx, opts.Sim, seeds, loads, laneParallel); err != nil {
			failAll(err)
			return
		}
	}
	// The removal ran once for the whole group; every member reports its
	// wall-clock (timings are progress-only and never serialized).
	for k, i := range members {
		r := de.res
		r.Job = jobs[i]
		if sims != nil {
			r.Sim = sims[k]
		}
		if ce != nil {
			r.Certify = ce.withSim(r.Sim)
		}
		results[i] = r
	}
}
