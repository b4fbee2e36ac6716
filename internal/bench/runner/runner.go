// Package runner is the concurrent sweep/experiment engine: it fans a
// (benchmark × switch-count × selection-policy × seed) job grid out across
// a worker pool, evaluates the deadlock-removal algorithm and the
// resource-ordering baseline on every point, and aggregates results into a
// deterministic, order-independent report. The same grid run serially or
// with any worker count produces byte-identical JSON — each job is
// self-contained and results are written to a pre-assigned slot, so
// scheduling order never leaks into the output.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Grid spans the experiment space. Zero-valued fields fall back to the
// paper's defaults (all six benchmarks, the Figure 10 family of switch
// counts, the paper's smallest-first selection, seed 0).
type Grid struct {
	// Benchmarks are benchmark specs. Synthesized specs (the switch-count
	// axis applies):
	//
	//	<name>                a paper benchmark from traffic.BenchmarkNames
	//	rand:<cores>x<fanout> seeded random k-out traffic
	//	transpose:<cores>     matrix-transpose permutation (square count)
	//	bitrev:<cores>        bit-reversal permutation (power of two)
	//	hotspot:<cores>x<h>   h shared hotspot targets
	//
	// Regular-topology presets carry their own topology and
	// dimension-ordered routes, so they ignore the switch-count axis and
	// run once per (policy, seed):
	//
	//	mesh:<cols>x<rows>:<pattern>
	//	torus:<cols>x<rows>:<pattern>
	//
	// with <pattern> one of transpose, bitrev, hotspot, uniform. The
	// torus presets are the textbook dateline stress: DOR routes cross
	// the wrap-around links, so the initial CDG is cyclic.
	//
	// A spec may name at most MaxSpecCores cores, and the grid may hold
	// at most MaxGridCells cells.
	Benchmarks []string `json:"benchmarks"`
	// SwitchCounts is the synthesis sweep axis (Figures 8 and 9).
	SwitchCounts []int `json:"switch_counts"`
	// Policies are cycle-selection policies: "smallest" or "first".
	Policies []string `json:"policies"`
	// Seeds instantiate random benchmark specs; named benchmarks are
	// deterministic, so for them every seed reproduces the same design.
	Seeds []int64 `json:"seeds"`
	// Routings is the routing-function axis for regular-topology presets:
	// "dor" (default), the turn models "west-first", "north-last",
	// "negative-first", "odd-even", or "min-adaptive". Synthesized
	// benchmarks always use load-aware shortest paths and do not cross
	// with this axis. Empty means dor only, and keeps reports in the
	// pre-routing JSON shape.
	Routings []string `json:"routings,omitempty"`
	// Faults masks this many links per regular-topology preset cell,
	// selected deterministically from the cell's seed such that the
	// surviving network stays connected; routes regenerate around the
	// faults. Synthesized benchmarks ignore it. Deterministic DOR cannot
	// route around faults, so a dor cell errors whenever a fault lands
	// on one of its XY paths — pair faults with an adaptive routing.
	Faults int `json:"faults,omitempty"`
	// MaxPaths caps candidate paths per flow for adaptive routings
	// (0 = route.MaxDefaultPaths).
	MaxPaths int `json:"max_paths,omitempty"`
	// Loads is the measurement load-sweep axis, values in (0, 1]. When
	// set (and the run simulates), every cell additionally measures the
	// post-removal design at each load, the per-cell points land in
	// SimResult.LoadSweep, and the report gains per-design
	// latency/throughput curves with a saturation estimate. It does not
	// change the cell's canonical measurement at Sim.Load, so reports
	// stay byte-identical when Loads is unset. The axis is normalized
	// sorted ascending and deduplicated.
	Loads []float64 `json:"loads,omitempty"`
}

// DefaultSwitchCounts is the default sweep axis: the Figure 10 design
// point bracketed by the shared x-positions of Figures 8 and 9.
var DefaultSwitchCounts = []int{8, 11, 14, 20}

func (g Grid) normalized() Grid {
	if len(g.Benchmarks) == 0 {
		g.Benchmarks = traffic.BenchmarkNames()
	}
	if len(g.SwitchCounts) == 0 {
		g.SwitchCounts = DefaultSwitchCounts
	}
	if len(g.Policies) == 0 {
		g.Policies = []string{"smallest"}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{0}
	}
	if len(g.Loads) > 0 {
		ls := append([]float64(nil), g.Loads...)
		sort.Float64s(ls)
		dst := ls[:1]
		for _, l := range ls[1:] {
			if l != dst[len(dst)-1] {
				dst = append(dst, l)
			}
		}
		g.Loads = dst
	}
	return g
}

// Jobs enumerates the grid's cross product in deterministic order:
// benchmark-major, then switch count, routing, policy, seed.
// Regular-topology presets pin their own switch count, so they cross
// only with routings, policies and seeds; synthesized benchmarks do not
// cross with the routing axis (their routing is always shortest-path).
func (g Grid) Jobs() []Job {
	g = g.normalized()
	// A spec that does not parse enumerates as a synthesized benchmark;
	// Validate rejects it.
	specs := make([]spec, len(g.Benchmarks))
	for i, b := range g.Benchmarks {
		specs[i], _ = parseSpec(b)
	}
	return g.jobs(specs)
}

// jobs is Jobs of the normalized grid g whose benchmark specs, in
// Benchmarks order, are specs.
func (g Grid) jobs(specs []spec) []Job {
	routings := g.Routings
	if len(routings) == 0 {
		routings = []string{""}
	}
	presets := 0
	for _, s := range specs {
		if s.preset() {
			presets++
		}
	}
	n, _ := g.cellCount(presets)
	out := make([]Job, 0, n)
	for i, b := range g.Benchmarks {
		counts := g.SwitchCounts
		rts := []string{""}
		faults := 0
		if s := specs[i]; s.preset() {
			counts = []int{s.a * s.b}
			rts = routings
			faults = g.Faults
		}
		for _, s := range counts {
			for _, rt := range rts {
				for _, p := range g.Policies {
					for _, seed := range g.Seeds {
						out = append(out, Job{Benchmark: b, SwitchCount: s, Routing: rt, Faults: faults, Policy: p, Seed: seed})
					}
				}
			}
		}
	}
	return out
}

// Validate checks every axis of the grid, failing fast on typos and on
// oversized requests before any work is scheduled. It builds nothing: a
// benchmark spec is parsed and put through the argument checks its
// generators run first, so it passes exactly when its design would build.
// A number in a spec that does not fit an int, a spec naming more than
// MaxSpecCores cores, and a grid of more than MaxGridCells cells are
// errors wrapping nocerr.ErrInvalidInput.
func (g Grid) Validate() error {
	_, err := g.normalized().specs()
	return err
}

// specs validates the normalized grid g and returns its parsed benchmark
// specs, in Benchmarks order.
func (g Grid) specs() ([]spec, error) {
	specs := make([]spec, len(g.Benchmarks))
	presets := 0
	for i, b := range g.Benchmarks {
		s, err := parseSpec(b)
		if err != nil {
			return nil, err
		}
		if err := s.check(); err != nil {
			return nil, err
		}
		if s.preset() {
			presets++
		}
		specs[i] = s
	}
	for _, p := range g.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return nil, err
		}
	}
	for _, r := range g.Routings {
		if _, err := route.ParseTurnModel(r); err != nil {
			return nil, err
		}
	}
	if g.Faults < 0 {
		return nil, fmt.Errorf("runner: negative fault count %d", g.Faults)
	}
	if g.MaxPaths < 0 {
		return nil, fmt.Errorf("runner: negative max-paths %d", g.MaxPaths)
	}
	for _, l := range g.Loads {
		// Positive-form check so NaN fails too.
		if !(l > 0 && l <= 1) {
			return nil, fmt.Errorf("runner: sweep load %v out of range (0, 1]", l)
		}
	}
	if len(g.SwitchCounts) == 0 {
		return nil, fmt.Errorf("runner: empty switch-count axis")
	}
	for _, s := range g.SwitchCounts {
		if s < 1 {
			return nil, fmt.Errorf("runner: switch count %d out of range", s)
		}
	}
	if cells, ok := g.cellCount(presets); !ok || cells > MaxGridCells {
		return nil, fmt.Errorf("%w: grid spans more than %d cells", nocerr.ErrInvalidInput, MaxGridCells)
	}
	return specs, nil
}

// Job is one point of the grid.
type Job struct {
	Benchmark   string `json:"benchmark"`
	SwitchCount int    `json:"switch_count"`
	// Routing is the preset's routing function ("" = dor for presets,
	// shortest-path for synthesized benchmarks).
	Routing string `json:"routing,omitempty"`
	// Faults is the number of seeded link faults masked for this cell.
	Faults int    `json:"faults,omitempty"`
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
}

// Result is one evaluated job. Wall-clock timings are carried for
// progress/summary output but excluded from JSON so reports are
// byte-identical across serial and parallel runs.
type Result struct {
	Job
	// Skipped means the switch count exceeds the benchmark's core count
	// (the sweep convention of Figures 8 and 9).
	Skipped bool `json:"skipped,omitempty"`
	// Canceled means the sweep's context was done before this job could
	// complete: either it was never scheduled, or its removal/simulation
	// returned through a cooperative cancellation check.
	Canceled bool `json:"canceled,omitempty"`
	// Error carries a per-job failure without aborting the sweep.
	Error string `json:"error,omitempty"`

	Cores          int  `json:"cores,omitempty"`
	Links          int  `json:"links,omitempty"`
	MaxRouteLen    int  `json:"max_route_len,omitempty"`
	InitialAcyclic bool `json:"initial_acyclic,omitempty"`
	RemovalVCs     int  `json:"removal_vcs"`
	OrderingVCs    int  `json:"ordering_vcs"`
	Breaks         int  `json:"breaks"`
	// Paths is the total candidate-path count of an adaptive cell's route
	// set (0 for single-path cells, where it adds no information).
	Paths int `json:"paths,omitempty"`

	// Sim is the flit-level verification outcome (only with
	// Options.Simulate).
	Sim *SimResult `json:"sim,omitempty"`

	// Certify is the independent-checker verification outcome (only
	// with Options.Certify): the certified leg's verdicts and the
	// three-leg agreement flag.
	Certify *CertResult `json:"certify,omitempty"`

	RemovalTime time.Duration `json:"-"`
}

// Report is a completed sweep: the normalized grid plus one result per
// job, in Grid.Jobs order regardless of scheduling. A canceled sweep
// still yields a structurally complete report — every job slot is
// present, with unfinished ones marked canceled.
type Report struct {
	Grid Grid `json:"grid"`
	// Canceled marks a partial report: the run's context was done before
	// every job completed.
	Canceled bool     `json:"canceled,omitempty"`
	Results  []Result `json:"results"`
	// Curves are the per-design load-sweep curves aggregated from the
	// results' LoadSweep points (only when Grid.Loads was set on a
	// simulated run). Shard reports omit them; the sharded dispatcher
	// aggregates them over the placed results, so serial, parallel and
	// sharded full reports agree byte for byte.
	Curves []DesignCurve `json:"curves,omitempty"`
}

// WriteJSON writes the report as indented JSON. The output is a pure
// function of the grid and the algorithm — timings and worker scheduling
// never appear in it.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Options configures a sweep run.
type Options struct {
	// Parallel is the worker count; values below 2 run serially.
	Parallel int
	// Policy is the break-direction rule applied to every cell's
	// removal (zero value is the paper's BestOfBoth). The grid's
	// Policies axis selects the *cycle-selection* rule per cell; this
	// field is the orthogonal direction rule.
	Policy core.DirectionPolicy
	// VCLimit caps the VCs each cell's removal may add (0 = unlimited);
	// cells that would exceed it fail with their error recorded.
	VCLimit int
	// Simulate adds the flit-level verification stage to every job: a
	// negative-control simulation of the pre-removal design and a
	// measurement simulation of the post-removal design (see
	// simEvalBatch).
	Simulate bool
	// Sim parameterizes the simulations; the per-job seed is derived from
	// the job's seed on top of these.
	Sim SimParams
	// Certify adds the independent-checker verification stage to every
	// job: the pre- and post-removal designs are re-checked from first
	// principles by internal/certify and the three-leg agreement verdict
	// lands in Result.Certify.
	Certify bool
	// Progress, when non-nil, receives one line per completed job.
	Progress io.Writer
	// OnResult, when non-nil, receives every completed job's slot index,
	// the total job count, and the result — the sweep's event feed.
	// Calls are serialized under the same mutex as Progress, but may be
	// issued from any worker goroutine.
	OnResult func(index, total int, res Result)

	// CellCache, when non-nil, is consulted before evaluating any cell
	// and fed after: a hit whose stored Result matches the cell's identity
	// is used verbatim (it is byte-identical to a recomputation by the
	// cache-key contract), and every cleanly computed cell is stored back.
	// Errored and canceled cells are never cached.
	CellCache CellCache
	// NoCache skips cache lookups while still storing fresh results —
	// a forced recomputation that refreshes the cache rather than
	// bypassing it entirely.
	NoCache bool

	// ShardIndex/ShardCount restrict the run to the grid cells ShardOf
	// assigns to shard ShardIndex of ShardCount (the worker side of the
	// sharded sweep backend). ShardCount 0 runs the whole grid. A sharded
	// report's Results hold only the owned cells, still in Grid.Jobs
	// order; the sharded dispatcher places them into the full report.
	ShardIndex int
	ShardCount int

	// maxPaths carries Grid.MaxPaths to the per-job evaluation.
	maxPaths int
}

// Run executes every job of the grid and returns the aggregated report.
// Job failures are recorded per-result; Run itself only fails on an
// invalid grid.
func Run(grid Grid, opts Options) (*Report, error) {
	return RunContext(context.Background(), grid, opts)
}

// RunContext is Run with cooperative cancellation. When ctx is done, no
// further jobs are scheduled, in-flight jobs return through the removal
// and simulation cancellation checks, and the report comes back valid
// but partial: Report.Canceled is set and every unfinished job slot is
// marked canceled. RunContext itself still returns a nil error in that
// case — the caller decides whether a partial sweep is a failure.
func RunContext(ctx context.Context, grid Grid, opts Options) (*Report, error) {
	r, err := newSweepRun(grid, opts)
	if err != nil {
		return nil, err
	}
	// Result-cache pre-pass: cells whose content address already holds a
	// clean result complete the moment the run starts, before any worker
	// is spawned, and are never scheduled.
	var cached []int
	for i := range r.jobs {
		if _, ok := r.lookup(i); ok {
			cached = append(cached, i)
		}
	}
	r.finish(cached, true)

	// Cells differing only in seed (and, with Grid.Loads, measurement
	// load) share their entire design build; the scheduler's unit of
	// work is therefore the design group, not the cell. Each group
	// builds its design exactly once and fans the per-cell simulations
	// out as one lockstep batch. Cache-served cells join no group.
	groups := r.groups()

	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	// Split the worker budget between group-level and lane-level
	// parallelism: with fewer groups than workers, the leftover cores go
	// to each group's batched lanes.
	laneParallel := 1
	if workers > 0 && opts.Parallel/workers > 1 {
		laneParallel = opts.Parallel / workers
	}

	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				r.runGroup(ctx, groups[gi], laneParallel)
				r.finish(groups[gi], false)
			}
		}()
	}
feed:
	for gi := range groups {
		select {
		case idx <- gi:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return r.report(ctx.Err() != nil), nil
}

// fail folds an evaluation error into the result: cancellations mark the
// slot canceled (so partial reports stay deterministic — no context error
// strings leak into the JSON), everything else is a per-job error.
func (r Result) fail(err error) Result {
	if errors.Is(err, nocerr.ErrCanceled) {
		r.Canceled = true
		return r
	}
	r.Error = err.Error()
	return r
}

func (r Result) oneLine() string {
	id := fmt.Sprintf("%s@%d/%s/seed%d", r.Benchmark, r.SwitchCount, r.Policy, r.Seed)
	if r.Routing != "" {
		id += "/" + r.Routing
	}
	if r.Faults > 0 {
		id += fmt.Sprintf("/f%d", r.Faults)
	}
	switch {
	case r.Error != "":
		return id + " ERROR " + r.Error
	case r.Canceled:
		return id + " canceled"
	case r.Skipped:
		return id + " skipped (switches > cores)"
	default:
		line := fmt.Sprintf("%s removal=%d ordering=%d breaks=%d in %v",
			id, r.RemovalVCs, r.OrderingVCs, r.Breaks, r.RemovalTime.Round(time.Microsecond))
		if r.Sim != nil {
			line += " sim:" + r.Sim.summary()
		}
		if r.Certify != nil {
			if r.Certify.Agree {
				line += " cert:agree"
			} else {
				line += " cert:DISAGREE"
			}
		}
		return line
	}
}

// summary renders the verification verdict compactly for progress lines
// and tables: the negative control's outcome (did the witness workload
// deadlock the unprotected design?), the post-removal verdict, and the
// post-removal tail latency.
func (s *SimResult) summary() string {
	pre := "pre=acyclic"
	if s.PreRan {
		pre = "pre=survived"
		if s.PreDeadlock {
			pre = "pre=deadlock"
		}
	}
	post := "post=ok"
	if s.PostDeadlock {
		post = "post=DEADLOCK"
	}
	return fmt.Sprintf("%s %s p95=%d", pre, post, s.PostP95)
}

// ParsePolicy maps a policy spec to the core selection constant.
func ParsePolicy(s string) (core.CycleSelection, error) {
	switch s {
	case "", "smallest":
		return core.SmallestFirst, nil
	case "first":
		return core.FirstFound, nil
	}
	return 0, fmt.Errorf("runner: unknown selection policy %q (valid: smallest, first)", s)
}
