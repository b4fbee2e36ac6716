package nocdr

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Session is the context-first front door of the library: one configured
// pipeline object whose methods cover the paper's whole flow —
// communication graph → synthesized topology → routes → CDG → iterative
// cycle removal → simulation — plus the concurrent sweep engine. A
// Session carries cross-cutting policy (break direction, cycle selection,
// VC budget, worker count) and an optional progress feed, so individual
// calls stay small:
//
//	s := nocdr.NewSession(
//		nocdr.WithVCLimit(8),
//		nocdr.WithProgress(func(e nocdr.Event) { log.Println(e.Kind) }),
//	)
//	design, err := s.Synthesize(ctx, g, nocdr.SynthOptions{SwitchCount: 14})
//	res, err := s.RemoveDeadlocks(ctx, design.Topology, design.Routes)
//
// Every long-running method takes a context.Context and returns promptly
// after cancellation with an error wrapping ErrCanceled (and the
// context's own error). Inputs are never mutated.
//
// A Session is immutable after NewSession and safe for concurrent use by
// multiple goroutines, provided the WithProgress callback is itself
// concurrency-safe: events from overlapping operations are delivered on
// the goroutines running them.
type Session struct {
	vcLimit       int
	maxIterations int
	policy        DirectionPolicy
	selection     CycleSelection
	parallel      int
	routings      []string
	faults        int
	maxPaths      int
	workers       []string
	workerSource  WorkerSource
	workerToken   string
	resultCache   ResultCache
	progress      func(Event)
	onBreak       func(BreakRecord) // legacy RemovalOptions.OnBreak passthrough
}

// Option configures a Session (functional options).
type Option func(*Session)

// NewSession returns a Session with the paper's default configuration,
// modified by the given options.
func NewSession(opts ...Option) *Session {
	s := &Session{parallel: 1}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithVCLimit caps the total virtual channels RemoveDeadlocks may add;
// exceeding it fails with ErrVCLimit. 0 (the default) means unlimited.
func WithVCLimit(n int) Option { return func(s *Session) { s.vcLimit = n } }

// WithMaxIterations caps the removal loop's cycle breaks; 0 means the
// library default.
func WithMaxIterations(n int) Option { return func(s *Session) { s.maxIterations = n } }

// WithPolicy selects the break-direction rule (default BestOfBoth, the
// paper's policy).
func WithPolicy(p DirectionPolicy) Option { return func(s *Session) { s.policy = p } }

// WithSelection selects which CDG cycle is attacked next (default
// SmallestFirst, the paper's heuristic).
func WithSelection(c CycleSelection) Option { return func(s *Session) { s.selection = c } }

// WithFullRebuild has no effect: removal always maintains the CDG
// incrementally. The rebuild-per-iteration loop, which gives the same
// results, lives only in the core package's tests, as their oracle.
//
// Deprecated: removal has one path; drop the option.
func WithFullRebuild(bool) Option { return func(*Session) {} }

// WithParallel sets Sweep's in-process worker count (default 1 =
// serial). Any value produces a byte-identical report; this only changes
// wall-clock time. It does not apply to WithWorkers dispatch, where each
// remote worker's own configuration (serve Options.SweepParallel)
// governs its pool.
func WithParallel(n int) Option { return func(s *Session) { s.parallel = n } }

// WithRouting sets Sweep's default routing-function axis for
// regular-topology preset cells (canonical turn-model names, see
// ParseTurnModel); a grid that carries its own Routings wins. The
// default is deterministic dimension-ordered routing.
func WithRouting(models ...string) Option {
	return func(s *Session) { s.routings = append([]string(nil), models...) }
}

// WithFaults sets Sweep's default per-cell link-fault count for
// regular-topology preset cells; a grid that carries its own Faults
// wins. Faults are selected deterministically from each cell's seed and
// never disconnect the network; pair them with an adaptive WithRouting —
// deterministic DOR cannot route around a fault.
func WithFaults(n int) Option { return func(s *Session) { s.faults = n } }

// WithMaxPaths caps candidate paths per flow for adaptive sweep cells
// (0 = the library default).
func WithMaxPaths(n int) Option { return func(s *Session) { s.maxPaths = n } }

// WithWorkers makes Sweep dispatch the grid across running `nocdr serve`
// workers at the given base URLs instead of evaluating cells in-process:
// cells are cut into shards by a stable hash of their identity (four
// per worker, at most 32; 32 if the cells are simulated), shards fan out
// over the /v1/sweep job API (requeued onto survivors if a worker dies),
// and the merged report is byte-identical to a local run of the same
// grid. The progress feed carries EventShardAssigned and
// EventWorkerRetry instead of in-process removal events; completed cells
// still emit EventSweepCell as their shard reports arrive.
func WithWorkers(urls ...string) Option {
	return func(s *Session) { s.workers = append([]string(nil), urls...) }
}

// WithWorkerSource attaches live worker membership to Sweep's
// distributed dispatch, on top of (or instead of) the static WithWorkers
// list: workers the source reports that were never seen before are
// admitted mid-run and immediately take unowned shards. A Sweep with a
// source cuts its grid into 32 shards whatever the fleet's size, so a
// worker that joins late still finds shards to take. The fabric
// package's coordinator-registry watcher implements the contract. A
// Sweep with shards to dispatch and an empty fleet at start fails at
// once with ErrWorker; one whose fleet empties mid-run waits up to 30s
// for a worker to join before failing.
func WithWorkerSource(src WorkerSource) Option { return func(s *Session) { s.workerSource = src } }

// WithWorkerAuth attaches the fleet bearer token to every request a
// distributed Sweep sends its workers ("" = open fleet).
func WithWorkerAuth(token string) Option { return func(s *Session) { s.workerToken = token } }

// WithResultCache attaches a content-addressed result cache to Sweep:
// before evaluating a cell the cache is consulted under the cell's
// semantic key (job identity + every option that changes its result +
// an engine-version salt), and every cleanly computed cell is stored
// back. A cache-served report is byte-identical to a cold one — the
// stored bytes are the canonical cell encoding. With WithWorkers, whole
// shards already cached are served locally and never dispatched.
func WithResultCache(c ResultCache) Option { return func(s *Session) { s.resultCache = c } }

// WithProgress streams the Session's Event feed to fn: cycle breaks and
// VC additions during removal, cell completions during sweeps, epoch
// snapshots during simulations. Events are delivered synchronously on
// the working goroutine — keep fn fast, and make it concurrency-safe if
// the Session is shared across goroutines.
func WithProgress(fn func(Event)) Option { return func(s *Session) { s.progress = fn } }

// Synthesize builds an application-specific topology and routes for a
// communication graph (substitute for the paper's reference [9]),
// honoring ctx between phases.
func (s *Session) Synthesize(ctx context.Context, g *TrafficGraph, opts SynthOptions) (*Design, error) {
	des, err := synth.SynthesizeContext(ctx, g, opts)
	return des, wrapErr(err)
}

// ComputeRoutes derives deterministic load-aware shortest-path routes
// for every flow on an existing topology with attached cores.
func (s *Session) ComputeRoutes(top *Topology, g *TrafficGraph) (*RouteTable, error) {
	tab, err := route.ShortestPaths(top, g)
	return tab, wrapErr(err)
}

// BuildCDG constructs the channel dependency graph for a routed
// topology.
func (s *Session) BuildCDG(top *Topology, tab *RouteTable) (*CDG, error) {
	g, err := cdg.Build(top, tab)
	return g, wrapErr(err)
}

// DeadlockFree reports whether the routed topology's CDG is acyclic.
func (s *Session) DeadlockFree(top *Topology, tab *RouteTable) (bool, error) {
	free, err := core.DeadlockFree(top, tab)
	return free, wrapErr(err)
}

// removalOptions materializes the Session's removal configuration,
// wiring the Event feed into the break loop.
func (s *Session) removalOptions() RemovalOptions {
	opts := core.Options{
		MaxIterations: s.maxIterations,
		VCLimit:       s.vcLimit,
		Policy:        s.policy,
		Selection:     s.selection,
		OnBreak:       s.onBreak,
	}
	if s.progress != nil {
		user := s.onBreak
		iter := 0
		opts.OnBreak = func(rec BreakRecord) {
			iter++
			r := rec
			s.progress(Event{Kind: EventCycleBroken, Iteration: iter, Break: &r})
			for _, ch := range rec.NewChannels {
				s.progress(Event{Kind: EventVCAdded, Iteration: iter, Channel: ch})
			}
			if user != nil {
				user(rec)
			}
		}
	}
	return opts
}

// RemoveDeadlocks runs the paper's Algorithm 1 under the Session's
// policy: it returns modified copies of the topology and routes whose
// CDG is acyclic, adding the minimum virtual channels its cost heuristic
// finds (at most WithVCLimit). The break loop checks ctx between
// iterations. Inputs are never mutated.
func (s *Session) RemoveDeadlocks(ctx context.Context, top *Topology, tab *RouteTable) (*RemovalResult, error) {
	res, err := core.RemoveContext(ctx, top, tab, s.removalOptions())
	return res, wrapErr(err)
}

// CostTable computes Algorithm 2's cost table for a cycle in the given
// direction (the paper's Table 1 when dir is Forward); useful for
// inspecting why a break was chosen.
func (s *Session) CostTable(dir Direction, cycle []Channel, tab *RouteTable) (*CostTable, error) {
	ct, err := core.BuildCostTable(dir, cycle, tab)
	return ct, wrapErr(err)
}

// ApplyResourceOrdering runs the paper's comparison baseline on the same
// inputs RemoveDeadlocks takes.
func (s *Session) ApplyResourceOrdering(top *Topology, tab *RouteTable, scheme OrderingScheme) (*OrderingResult, error) {
	res, err := ordering.Apply(top, tab, scheme)
	return res, wrapErr(err)
}

// DefaultEpochCycles is the epoch period Session.Simulate falls back to
// when a progress feed is attached but SimConfig.EpochCycles is unset.
const DefaultEpochCycles = 1000

// NewSimulator builds a flit-level wormhole simulator for a routed
// workload, wiring the Session's Event feed into the epoch callback
// (unless the config carries its own).
func (s *Session) NewSimulator(top *Topology, g *TrafficGraph, tab *RouteTable, cfg SimConfig) (*Simulator, error) {
	sim, err := wormhole.New(top, g, tab, s.simConfig(cfg))
	return sim, wrapErr(err)
}

// Simulate builds a simulator and runs it to completion, honoring ctx
// inside the flit-stepping loop and emitting EventSimEpoch snapshots to
// the Session's progress feed.
//
// It is the single-variant wrapper over SimulateBatch — a SimSpec with
// only Base set — retained with its behavior pinned by differential
// tests; new code sweeping seeds or loads should call SimulateBatch,
// which shares design construction across variants.
func (s *Session) Simulate(ctx context.Context, top *Topology, g *TrafficGraph, tab *RouteTable, cfg SimConfig) (*SimStats, error) {
	bs, err := s.SimulateBatch(ctx, top, g, tab, SimSpec{Base: cfg})
	if err != nil {
		return nil, err
	}
	return bs.Variants[0].Stats, nil
}

// simConfig attaches the Session's progress feed to a simulation config.
func (s *Session) simConfig(cfg SimConfig) SimConfig {
	if s.progress != nil && cfg.OnEpoch == nil {
		if cfg.EpochCycles == 0 {
			cfg.EpochCycles = DefaultEpochCycles
		}
		cfg.OnEpoch = func(e SimEpoch) {
			s.progress(Event{Kind: EventSimEpoch, Epoch: &e})
		}
	}
	return cfg
}

// Sweep fans the grid's (benchmark × switches × policy × seed) jobs out
// across WithParallel workers and aggregates a deterministic report —
// the same engine behind `nocexp sweep`. The Session's WithPolicy and
// WithVCLimit apply to every cell's removal; the grid's Policies axis
// governs cycle selection per cell (when the grid leaves it empty, it
// defaults to the Session's WithSelection instead of the paper default),
// and a grid without Routings/Faults/MaxPaths inherits the Session's
// WithRouting/WithFaults/WithMaxPaths. Each cell's removal and
// simulations honor ctx; on cancellation the partial report is returned
// together with an error
// wrapping ErrCanceled, with Report.Canceled set and unfinished cells
// marked canceled. Completed cells emit EventSweepCell on the Session's
// progress feed.
func (s *Session) Sweep(ctx context.Context, grid SweepGrid, opts SweepOptions) (*SweepReport, error) {
	if len(grid.Policies) == 0 && s.selection == FirstFound {
		grid.Policies = []string{"first"}
	}
	if len(grid.Routings) == 0 {
		grid.Routings = append([]string(nil), s.routings...)
	}
	if grid.Faults == 0 {
		grid.Faults = s.faults
	}
	if grid.MaxPaths == 0 {
		grid.MaxPaths = s.maxPaths
	}
	ropts := runner.Options{
		Parallel:   s.parallel,
		Policy:     s.policy,
		VCLimit:    s.vcLimit,
		Simulate:   opts.Simulate,
		Sim:        opts.Sim,
		Certify:    opts.Certify,
		ShardIndex: opts.ShardIndex,
		ShardCount: opts.ShardCount,
		CellCache:  s.resultCache,
		NoCache:    opts.NoCache,
	}
	if s.progress != nil {
		ropts.OnResult = func(i, total int, res SweepResult) {
			s.progress(Event{Kind: EventSweepCell, CellIndex: i, CellTotal: total, Cell: &res})
		}
	}
	var rep *SweepReport
	var err error
	if len(s.workers) > 0 || s.workerSource != nil {
		if opts.ShardCount != 0 {
			return nil, wrapErr(fmt.Errorf("%w: WithWorkers and a SweepOptions shard filter are mutually exclusive", nocerr.ErrInvalidInput))
		}
		ropts.ShardIndex, ropts.ShardCount = 0, 0
		sh := &runner.Sharded{Workers: s.workers, Source: s.workerSource, AuthToken: s.workerToken}
		if s.progress != nil {
			sh.OnAssign = func(shard, shards int, worker string) {
				s.progress(Event{Kind: EventShardAssigned, Shard: shard, ShardTotal: shards, Worker: worker})
			}
			sh.OnRetry = func(shard int, worker string, failure error) {
				s.progress(Event{Kind: EventWorkerRetry, Shard: shard, Worker: worker, WorkerErr: failure.Error()})
			}
		}
		rep, err = sh.RunContext(ctx, grid, ropts)
	} else {
		rep, err = runner.RunContext(ctx, grid, ropts)
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	if rep.Canceled {
		if ctx.Err() != nil {
			return rep, fmt.Errorf("%w: sweep interrupted, partial report retained: %w", nocerr.ErrCanceled, ctx.Err())
		}
		// A sharded sweep can come back partial without this ctx firing:
		// a worker-side job was canceled (operator, worker shutdown).
		return rep, fmt.Errorf("%w: sweep interrupted on a worker, partial report retained", nocerr.ErrCanceled)
	}
	return rep, nil
}
