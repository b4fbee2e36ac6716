// The shared run of a sweep: every job RunContext and Sharded.RunContext
// have in common. A run enumerates and keys the grid's cells, answers
// cells from the result cache, completes cells and assembles the report;
// the two executors differ only in how they evaluate the cells the cache
// did not answer — design groups on local goroutines, or shards on
// remote workers.

package runner

import (
	"fmt"
	"sync"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// sweepRun is one run of a validated grid: its cells in Grid.Jobs order
// (only the owned ones on the worker side of a sharded sweep), their
// cache keys, and one result slot per cell.
type sweepRun struct {
	grid  Grid
	opts  Options
	specs map[string]spec // the grid's benchmark specs, parsed once, by text
	jobs  []Job
	keys  []string // nil without a cache
	// results[i] is cell i's result; filled[i] says it is complete.
	results []Result
	filled  []bool

	mu       sync.Mutex // serializes progress lines and OnResult calls
	finished int        // cells reported so far
}

// newSweepRun validates grid and opts and enumerates, filters and keys
// the cells of the run.
func newSweepRun(grid Grid, opts Options) (*sweepRun, error) {
	grid = grid.normalized()
	specs, err := grid.specs()
	if err != nil {
		return nil, err
	}
	if opts.ShardCount < 0 || (opts.ShardCount > 0 && (opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount)) {
		return nil, fmt.Errorf("%w: shard %d/%d out of range", nocerr.ErrInvalidInput, opts.ShardIndex, opts.ShardCount)
	}
	opts.maxPaths = grid.MaxPaths
	jobs := grid.jobs(specs)
	if opts.ShardCount > 0 {
		owned := make([]Job, 0, len(jobs))
		for _, j := range jobs {
			if ShardOf(j, opts.ShardCount) == opts.ShardIndex {
				owned = append(owned, j)
			}
		}
		jobs = owned
	}
	r := &sweepRun{
		grid:    grid,
		opts:    opts,
		specs:   make(map[string]spec, len(specs)),
		jobs:    jobs,
		keys:    cellKeys(jobs, opts, grid.Loads),
		results: make([]Result, len(jobs)),
		filled:  make([]bool, len(jobs)),
	}
	for _, s := range specs {
		r.specs[s.text] = s
	}
	return r, nil
}

// lookup answers cell i from the cache. On a usable hit it writes the
// cell's slot and returns the stored bytes; the stored bytes are the
// canonical Result encoding, so a cache-served report is byte-identical
// to a cold one. The slot is not complete until finish.
func (r *sweepRun) lookup(i int) ([]byte, bool) {
	if r.keys == nil || r.opts.NoCache {
		return nil, false
	}
	res, data, ok := cacheHit(r.opts, r.keys[i], r.jobs[i])
	if ok {
		r.results[i] = res
	}
	return data, ok
}

// finish completes cells whose slots hold their results: it stores each
// one computed cleanly (cached says the cache answered them), then
// reports each once to the progress writer and once to OnResult. Calls
// from concurrent goroutines must complete disjoint cells.
func (r *sweepRun) finish(cells []int, cached bool) {
	for _, i := range cells {
		r.filled[i] = true
		if !cached && r.keys != nil {
			storeClean(r.opts.CellCache, r.keys[i], r.results[i])
		}
	}
	if r.opts.Progress == nil && r.opts.OnResult == nil {
		return
	}
	// The counter and the callbacks share the mutex, so the n/total
	// labels stay monotonic on the stream and OnResult observers never
	// run concurrently.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, i := range cells {
		r.finished++
		if r.opts.Progress != nil {
			line := r.results[i].oneLine()
			if cached {
				line += " (cached)"
			}
			fmt.Fprintf(r.opts.Progress, "sweep %d/%d: %s\n", r.finished, len(r.jobs), line)
		}
		if r.opts.OnResult != nil {
			r.opts.OnResult(i, len(r.jobs), r.results[i])
		}
	}
}

// report assembles the run's report. A slot no cell completed becomes a
// canceled cell — the report is structurally complete even when cells
// never ran — and marks the report canceled; canceled says whether it
// already is. The curves are aggregated over the complete results,
// except in a worker-side shard report: the dispatcher aggregates those
// over the whole grid.
func (r *sweepRun) report(canceled bool) *Report {
	for i, ok := range r.filled {
		if !ok {
			r.results[i] = Result{Job: r.jobs[i], Canceled: true}
			canceled = true
		}
	}
	rep := &Report{Grid: r.grid, Canceled: canceled, Results: r.results}
	if r.opts.ShardCount == 0 {
		rep.Curves = BuildCurves(rep)
	}
	return rep
}
