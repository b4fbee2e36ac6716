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
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
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
	routings := g.Routings
	if len(routings) == 0 {
		routings = []string{""}
	}
	out := make([]Job, 0, len(g.Benchmarks)*len(g.SwitchCounts)*len(routings)*len(g.Policies)*len(g.Seeds))
	for _, b := range g.Benchmarks {
		counts := g.SwitchCounts
		rts := []string{""}
		faults := 0
		if p, ok := parsePreset(b); ok {
			counts = []int{p.cols * p.rows}
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

// Validate resolves every benchmark spec and policy name, failing fast on
// typos before any work is scheduled.
func (g Grid) Validate() error {
	n := g.normalized()
	for _, b := range n.Benchmarks {
		if p, ok := parsePreset(b); ok {
			if _, _, err := p.build(); err != nil {
				return err
			}
			continue
		}
		if _, err := resolveBenchmark(b, 0); err != nil {
			return err
		}
	}
	for _, p := range n.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return err
		}
	}
	for _, r := range n.Routings {
		if _, err := route.ParseTurnModel(r); err != nil {
			return err
		}
	}
	if n.Faults < 0 {
		return fmt.Errorf("runner: negative fault count %d", n.Faults)
	}
	if n.MaxPaths < 0 {
		return fmt.Errorf("runner: negative max-paths %d", n.MaxPaths)
	}
	for _, l := range n.Loads {
		// Positive-form check so NaN fails too.
		if !(l > 0 && l <= 1) {
			return fmt.Errorf("runner: sweep load %v out of range (0, 1]", l)
		}
	}
	if len(n.SwitchCounts) == 0 {
		return fmt.Errorf("runner: empty switch-count axis")
	}
	for _, s := range n.SwitchCounts {
		if s < 1 {
			return fmt.Errorf("runner: switch count %d out of range", s)
		}
	}
	return nil
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
	// simulated run). Shard reports omit them; MergeShards recomputes
	// them over the reassembled results, so serial, parallel and sharded
	// full reports agree byte for byte.
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
	// order; MergeShards reassembles the full report.
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
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if opts.ShardCount < 0 || (opts.ShardCount > 0 && (opts.ShardIndex < 0 || opts.ShardIndex >= opts.ShardCount)) {
		return nil, fmt.Errorf("%w: shard %d/%d out of range", nocerr.ErrInvalidInput, opts.ShardIndex, opts.ShardCount)
	}
	grid = grid.normalized()
	opts.maxPaths = grid.MaxPaths
	jobs := grid.Jobs()
	if opts.ShardCount > 0 {
		owned := make([]Job, 0, len(jobs))
		for _, j := range jobs {
			if ShardOf(j, opts.ShardCount) == opts.ShardIndex {
				owned = append(owned, j)
			}
		}
		jobs = owned
	}
	results := make([]Result, len(jobs))
	scheduled := make([]bool, len(jobs))

	// Result-cache pre-pass: cells whose content address already holds a
	// clean result are filled in place and never scheduled. The stored
	// bytes are the canonical Result encoding, so a cache-served report
	// is byte-identical to a cold one.
	keys := cellKeys(jobs, opts, grid.Loads)
	var cached []bool
	if opts.CellCache != nil && !opts.NoCache {
		cached = make([]bool, len(jobs))
		for i, j := range jobs {
			if r, _, ok := cacheHit(opts, keys[i], j); ok {
				results[i] = r
				scheduled[i] = true
				cached[i] = true
			}
		}
	}

	// Cells differing only in seed (and, with Grid.Loads, measurement
	// load) share their entire design build; the scheduler's unit of
	// work is therefore the design group, not the cell. Each group
	// builds its design exactly once and fans the per-cell simulations
	// out as one lockstep batch. Cache-served cells join no group.
	groups := groupJobs(jobs, cached)

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

	var (
		wg       sync.WaitGroup
		progress sync.Mutex
		done     int
	)
	// Cache-served cells complete the moment the run starts: their
	// progress lines and OnResult events fire up front, before any
	// worker is spawned, so observers see every cell exactly once.
	if opts.Progress != nil || opts.OnResult != nil {
		for i := range jobs {
			if cached == nil || !cached[i] {
				continue
			}
			done++
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "sweep %d/%d: %s (cached)\n", done, len(jobs), results[i].oneLine())
			}
			if opts.OnResult != nil {
				opts.OnResult(i, len(jobs), results[i])
			}
		}
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				members := groups[gi]
				runGroup(ctx, jobs, members, results, opts, grid.Loads, laneParallel)
				if opts.CellCache != nil {
					for _, i := range members {
						storeClean(opts.CellCache, keys[i], results[i])
					}
				}
				if opts.Progress != nil || opts.OnResult != nil {
					// Counter increment and callbacks share the mutex so
					// the n/total labels stay monotonic on the stream and
					// OnResult observers never run concurrently.
					progress.Lock()
					for _, i := range members {
						done++
						if opts.Progress != nil {
							fmt.Fprintf(opts.Progress, "sweep %d/%d: %s\n", done, len(jobs), results[i].oneLine())
						}
						if opts.OnResult != nil {
							opts.OnResult(i, len(jobs), results[i])
						}
					}
					progress.Unlock()
				}
			}
		}()
	}
feed:
	for gi := range groups {
		select {
		case idx <- gi:
			for _, i := range groups[gi] {
				scheduled[i] = true
			}
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	rep := &Report{Grid: grid, Results: results}
	if ctx.Err() != nil {
		rep.Canceled = true
		for i := range results {
			if !scheduled[i] {
				results[i] = Result{Job: jobs[i], Canceled: true}
			}
		}
	}
	if opts.ShardCount == 0 {
		rep.Curves = BuildCurves(rep)
	}
	return rep, nil
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

var (
	randSpec    = regexp.MustCompile(`^rand:(\d+)x(\d+)$`)
	patternSpec = regexp.MustCompile(`^(transpose|bitrev):(\d+)$`)
	hotspotSpec = regexp.MustCompile(`^hotspot:(\d+)(?:x(\d+))?$`)
	presetSpec  = regexp.MustCompile(`^(mesh|torus):(\d+)(?:x(\d+))?(?::(transpose|bitrev|hotspot|uniform))?$`)
)

// resolveBenchmark turns a synthesized benchmark spec into a traffic
// graph: a paper benchmark by name, "rand:<cores>x<fanout>" seeded by the
// job's seed, or one of the deterministic adversarial patterns
// (transpose:<n>, bitrev:<n>, hotspot:<n>x<h>).
func resolveBenchmark(spec string, seed int64) (*traffic.Graph, error) {
	if m := randSpec.FindStringSubmatch(spec); m != nil {
		cores, _ := strconv.Atoi(m[1])
		fanout, _ := strconv.Atoi(m[2])
		if cores < 2 || fanout < 1 || fanout >= cores {
			return nil, fmt.Errorf("runner: rand spec %q out of range (need 2 ≤ cores, 1 ≤ fanout < cores)", spec)
		}
		name := fmt.Sprintf("%s#%d", spec, seed)
		return traffic.RandomKOut(name, cores, fanout, seed), nil
	}
	if m := patternSpec.FindStringSubmatch(spec); m != nil {
		n, _ := strconv.Atoi(m[2])
		if m[1] == "transpose" {
			return traffic.Transpose(n)
		}
		return traffic.BitReversal(n)
	}
	if m := hotspotSpec.FindStringSubmatch(spec); m != nil {
		n, _ := strconv.Atoi(m[1])
		h := max(1, n/8)
		if m[2] != "" {
			h, _ = strconv.Atoi(m[2])
		}
		return traffic.Hotspot(n, h)
	}
	return traffic.ByName(spec)
}

// preset is a parsed regular-topology benchmark spec.
type preset struct {
	wrap    bool // torus if true
	cols    int
	rows    int
	pattern string
}

// parsePreset recognizes mesh:/torus: specs. "mesh:<n>" is shorthand for
// the square uniform grid "mesh:<n>x<n>:uniform"; an omitted pattern
// defaults to uniform.
func parsePreset(spec string) (preset, bool) {
	m := presetSpec.FindStringSubmatch(spec)
	if m == nil {
		return preset{}, false
	}
	cols, _ := strconv.Atoi(m[2])
	rows := cols
	if m[3] != "" {
		rows, _ = strconv.Atoi(m[3])
	}
	pattern := m[4]
	if pattern == "" {
		pattern = "uniform"
	}
	return preset{wrap: m[1] == "torus", cols: cols, rows: rows, pattern: pattern}, true
}

// build materializes the preset's grid topology and traffic pattern.
func (p preset) build() (*regular.Grid, *traffic.Graph, error) {
	var grid *regular.Grid
	var err error
	if p.wrap {
		grid, err = regular.Torus(p.cols, p.rows)
	} else {
		grid, err = regular.Mesh(p.cols, p.rows)
	}
	if err != nil {
		return nil, nil, err
	}
	n := p.cols * p.rows
	var g *traffic.Graph
	if p.pattern == "uniform" {
		g, err = regular.UniformTraffic(n, n/2, 100)
	} else {
		// The non-uniform patterns share their construction (and the
		// hotspot default fan-in) with the synthesized specs.
		if p.pattern == "transpose" && p.cols != p.rows {
			return nil, nil, fmt.Errorf("runner: transpose preset needs a square grid, got %dx%d", p.cols, p.rows)
		}
		g, err = resolveBenchmark(fmt.Sprintf("%s:%d", p.pattern, n), 0)
	}
	if err != nil {
		return nil, nil, err
	}
	return grid, g, nil
}
