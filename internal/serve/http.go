package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Handler mounts the v1 API on a fresh mux. Mutating routes sit behind
// the fleet bearer guard (a no-op when Options.AuthToken is empty);
// reads stay open so dashboards and probes need no credentials.
func (s *Server) Handler() http.Handler {
	guard := func(h http.HandlerFunc) http.Handler {
		return fabric.RequireBearer(s.opts.AuthToken, h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("POST /v1/remove", guard(s.handleRemove))
	mux.Handle("POST /v1/sweep", guard(s.handleSweep))
	mux.Handle("POST /v1/simulate", guard(s.handleSimulate))
	mux.Handle("POST /v1/reconfigure", guard(s.handleReconfigure))
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/certificate", s.handleJobCertificate)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.Handle("POST /v1/jobs/{id}/cancel", guard(s.handleJobCancel))
	mux.Handle("POST /v1/workers/register", guard(s.handleWorkerRegister))
	mux.Handle("POST /v1/workers/{id}/heartbeat", guard(s.handleWorkerHeartbeat))
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.Handle("POST /v1/cache/seed", guard(s.handleCacheSeed))
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheEntry)
	return mux
}

// handleHealthz is the liveness document: compatibility key "status"
// plus role, uptime and fleet size, so a probe distinguishes a
// coordinator from its workers without extra round-trips.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"role":      s.opts.Role,
		"uptime_ms": time.Since(s.started).Milliseconds(),
		"workers":   s.registry.Count(),
	})
}

// handleWorkerRegister admits (or refreshes) a fleet worker and answers
// with the heartbeat contract it must honor.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.URL) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: worker url is required", nocerr.ErrInvalidInput))
		return
	}
	wk := s.registry.Register(req.URL)
	writeJSON(w, http.StatusOK, map[string]any{
		"id":                    wk.ID,
		"heartbeat_interval_ms": s.registry.HeartbeatInterval().Milliseconds(),
		"ttl_ms":                s.registry.TTL().Milliseconds(),
	})
}

// handleWorkerHeartbeat refreshes a worker's liveness; 404 tells a
// retired worker to re-register.
func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.registry.Heartbeat(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: worker %q (retired or never registered)", nocerr.ErrNotFound, id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	live := s.registry.Live()
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": live,
		"count":   len(live),
		"retired": s.registry.Retired(),
	})
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	st := s.opts.Cache.Stats() // nil-safe: zero counters when disabled
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  s.opts.Cache != nil,
		"stats":    st,
		"hit_rate": st.HitRate(),
	})
}

// handleCacheSeed accepts a batch of warm cache entries from a peer —
// the coordinator shipping its hits ahead of a shard dispatch, or a
// worker pushing fresh results home. Entries land via Cache.Seed, which
// stores without echoing back upstream, so propagation never loops. An
// instance running without a cache answers 409: the peer should stop
// shipping rather than retry.
func (s *Server) handleCacheSeed(w http.ResponseWriter, r *http.Request) {
	if s.opts.Cache == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("%w: this instance runs without a result cache", nocerr.ErrInvalidInput))
		return
	}
	var req struct {
		Entries []fabric.CacheEntry `json:"entries"`
	}
	if !s.decode(w, r, &req) {
		return
	}
	stored := 0
	for _, e := range req.Entries {
		if e.Key == "" || len(e.Value) == 0 {
			continue
		}
		s.opts.Cache.Seed(e.Key, e.Value)
		stored++
	}
	writeJSON(w, http.StatusOK, map[string]any{"stored": stored})
}

// handleCacheEntry serves one raw cache value by key — the pull half of
// propagation, used by workers whose local tiers miss.
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.opts.Cache == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: this instance runs without a result cache", nocerr.ErrNotFound))
		return
	}
	v, ok := s.opts.Cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: cache entry %q", nocerr.ErrNotFound, key))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(v)
}

// removeRequest is the POST /v1/remove body: the design to repair plus
// the removal policy.
type removeRequest struct {
	Topology *nocdr.Topology   `json:"topology"`
	Routes   *nocdr.RouteTable `json:"routes"`
	Options  struct {
		VCLimit       int    `json:"vc_limit"`
		MaxIterations int    `json:"max_iterations"`
		Policy        string `json:"policy"`    // "", "best", "forward", "backward"
		Selection     string `json:"selection"` // "", "smallest", "first"
		// NoCache forces recomputation, refreshing (never consulting)
		// the result cache. It does not participate in the cache key.
		NoCache bool `json:"no_cache"`
	} `json:"options"`
}

// removalOptions appends to opts the session options a request's removal
// settings name: the break-direction policy ("" or "best", "forward",
// "backward") and the cycle selection ("" or "smallest", "first"). An
// unknown value fails with ErrInvalidInput, for a 400.
func removalOptions(policy, selection string, opts ...nocdr.Option) ([]nocdr.Option, error) {
	switch policy {
	case "", "best":
		opts = append(opts, nocdr.WithPolicy(nocdr.BestOfBoth))
	case "forward":
		opts = append(opts, nocdr.WithPolicy(nocdr.ForwardOnly))
	case "backward":
		opts = append(opts, nocdr.WithPolicy(nocdr.BackwardOnly))
	default:
		return nil, fmt.Errorf("%w: unknown policy %q", nocerr.ErrInvalidInput, policy)
	}
	switch selection {
	case "", "smallest":
		opts = append(opts, nocdr.WithSelection(nocdr.SmallestFirst))
	case "first":
		opts = append(opts, nocdr.WithSelection(nocdr.FirstFound))
	default:
		return nil, fmt.Errorf("%w: unknown selection %q", nocerr.ErrInvalidInput, selection)
	}
	return opts, nil
}

// removeResult is a finished remove job's result document.
type removeResult struct {
	DeadlockFree   bool              `json:"deadlock_free"`
	InitialAcyclic bool              `json:"initial_acyclic"`
	AddedVCs       int               `json:"added_vcs"`
	Iterations     int               `json:"iterations"`
	Topology       *nocdr.Topology   `json:"topology"`
	Routes         *nocdr.RouteTable `json:"routes"`
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req removeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Topology == nil || req.Routes == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: topology and routes are required", nocerr.ErrInvalidInput))
		return
	}
	opts, err := removalOptions(req.Options.Policy, req.Options.Selection,
		nocdr.WithVCLimit(req.Options.VCLimit),
		nocdr.WithMaxIterations(req.Options.MaxIterations))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The cache key spans every semantic input; the bypass flag must
	// address the same entry it refreshes, so it is zeroed out.
	keyReq := req
	keyReq.Options.NoCache = false
	s.enqueue(w, "remove", func(ctx context.Context, j *Job) (any, error) {
		return s.cachedResult(j, "serve/remove", keyReq, req.Options.NoCache, func() (any, error) {
			sess := s.session(j, opts...)
			res, err := sess.RemoveDeadlocks(ctx, req.Topology, req.Routes)
			if err != nil {
				return nil, err
			}
			free, err := sess.DeadlockFree(res.Topology, res.Routes)
			if err != nil {
				return nil, err
			}
			return removeResult{
				DeadlockFree:   free,
				InitialAcyclic: res.InitialAcyclic,
				AddedVCs:       res.AddedVCs,
				Iterations:     res.Iterations,
				Topology:       res.Topology,
				Routes:         res.Routes,
			}, nil
		})
	})
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	Grid nocdr.SweepGrid `json:"grid"`
	// Seeds/Loads are top-level aliases for grid.seeds/grid.loads,
	// mirroring the CLI's -seeds/-loads flags; values inside the grid
	// win when both are present.
	Seeds    []int64         `json:"seeds"`
	Loads    []float64       `json:"loads"`
	Simulate bool            `json:"simulate"`
	Sim      nocdr.SimParams `json:"sim"`
	// Certify adds the independent-checker verification stage to every
	// cell (the nocexp sweep -certify flag).
	Certify bool `json:"certify"`
	// Parallel overrides the server's per-sweep runner worker count.
	Parallel int `json:"parallel"`
	// Options carries the per-cell removal policy, so a sharded
	// coordinator can forward its full configuration and keep shard
	// results byte-identical to a local run.
	Options struct {
		VCLimit int    `json:"vc_limit"`
		Policy  string `json:"policy"` // "", "best", "forward", "backward"
		// NoCache forces recomputation of every cell, refreshing (never
		// consulting) the per-cell result cache.
		NoCache bool `json:"no_cache"`
	} `json:"options"`
}

// parseShard resolves the ?shard=i/n query filter of /v1/sweep. An empty
// spec means unsharded.
func parseShard(spec string) (index, count int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	i, n, ok := strings.Cut(spec, "/")
	if ok {
		index, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("%w: malformed shard filter %q (want i/n with 0 <= i < n)", nocerr.ErrInvalidInput, spec)
	}
	return index, count, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Grid.Seeds) == 0 {
		req.Grid.Seeds = req.Seeds
	}
	if len(req.Grid.Loads) == 0 {
		req.Grid.Loads = req.Loads
	}
	if err := req.Grid.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Simulate {
		if err := runner.ValidateSim(req.Grid, req.Sim); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	shardIndex, shardCount, err := parseShard(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	extra, err := removalOptions(req.Options.Policy, "", nocdr.WithVCLimit(req.Options.VCLimit))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Parallel > 0 {
		extra = append(extra, nocdr.WithParallel(req.Parallel))
	}
	if shardCount != 0 {
		// A shard job's only reader is the dispatching coordinator, which
		// needs just the terminal state: recording no sweep_cell events
		// keeps each retained shard job's cells in its report alone.
		extra = append(extra, nocdr.WithProgress(nil))
	}
	s.enqueue(w, "sweep", func(ctx context.Context, j *Job) (any, error) {
		sess := s.session(j, extra...)
		// A canceled sweep still returns its partial report; runJob
		// stores it alongside the canceled state.
		return sess.Sweep(ctx, req.Grid, nocdr.SweepOptions{
			Simulate:   req.Simulate,
			Sim:        req.Sim,
			Certify:    req.Certify,
			ShardIndex: shardIndex,
			ShardCount: shardCount,
			NoCache:    req.Options.NoCache,
		})
	})
}

// simulateRequest is the POST /v1/simulate body.
type simulateRequest struct {
	Topology *nocdr.Topology     `json:"topology"`
	Traffic  *nocdr.TrafficGraph `json:"traffic"`
	Routes   *nocdr.RouteTable   `json:"routes"`
	Config   struct {
		MaxCycles      int64   `json:"max_cycles"`
		LoadFactor     float64 `json:"load_factor"`
		PacketsPerFlow int     `json:"packets_per_flow"`
		BufferDepth    int     `json:"buffer_depth"`
		Seed           int64   `json:"seed"`
		EpochCycles    int64   `json:"epoch_cycles"`
		// Seeds/Loads are the batch axes, named after the CLI's
		// -seeds/-loads flags. When either is set the job runs the
		// batch engine over the Seeds × Loads cross product and
		// the result document is the batch shape (a "variants" array);
		// the singular seed/load_factor fields remain the accepted
		// single-value spelling and seed every lane that does not
		// override them.
		Seeds []int64   `json:"seeds"`
		Loads []float64 `json:"loads"`
	} `json:"config"`
	Options struct {
		// NoCache forces recomputation, refreshing (never consulting)
		// the result cache.
		NoCache bool `json:"no_cache"`
	} `json:"options"`
}

// simulateResult is a finished simulate job's result document.
type simulateResult struct {
	Cycles           int64   `json:"cycles"`
	InjectedPackets  int64   `json:"injected_packets"`
	DeliveredPackets int64   `json:"delivered_packets"`
	DeliveredFlits   int64   `json:"delivered_flits"`
	AvgLatency       float64 `json:"avg_latency"`
	MaxLatency       int64   `json:"max_latency"`
	Throughput       float64 `json:"throughput_flits_per_cycle"`
	Deadlocked       bool    `json:"deadlocked"`
	DeadlockCycle    int64   `json:"deadlock_cycle,omitempty"`
	Drained          bool    `json:"drained"`
}

func toSimulateResult(st *nocdr.SimStats) simulateResult {
	return simulateResult{
		Cycles:           st.Cycles,
		InjectedPackets:  st.InjectedPackets,
		DeliveredPackets: st.DeliveredPackets,
		DeliveredFlits:   st.DeliveredFlits,
		AvgLatency:       st.AvgLatency(),
		MaxLatency:       st.LatencyMax,
		Throughput:       st.ThroughputFlitsPerCycle(),
		Deadlocked:       st.Deadlocked,
		DeadlockCycle:    st.DeadlockCycle,
		Drained:          st.Drained,
	}
}

// variantResult is one lane of a batched simulate job: the normalized
// (seed, load) tag plus the standard result document.
type variantResult struct {
	Seed int64   `json:"seed"`
	Load float64 `json:"load"`
	simulateResult
}

// batchSimulateResult is a finished batched simulate job's result
// document: one entry per lane in Seeds × Loads order (seed-major).
type batchSimulateResult struct {
	Variants []variantResult `json:"variants"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Topology == nil || req.Traffic == nil || req.Routes == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: topology, traffic and routes are required", nocerr.ErrInvalidInput))
		return
	}
	cfg := nocdr.SimConfig{
		MaxCycles:      req.Config.MaxCycles,
		LoadFactor:     req.Config.LoadFactor,
		PacketsPerFlow: req.Config.PacketsPerFlow,
		BufferDepth:    req.Config.BufferDepth,
		Seed:           req.Config.Seed,
		EpochCycles:    req.Config.EpochCycles,
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 100000
	}
	if err := checkSimulate(&cfg, req.Topology, len(req.Config.Seeds), len(req.Config.Loads)); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	keyReq := req
	keyReq.Options.NoCache = false
	if len(req.Config.Seeds) > 0 || len(req.Config.Loads) > 0 {
		spec := nocdr.SimSpec{Seeds: req.Config.Seeds, Loads: req.Config.Loads, Base: cfg}
		s.enqueue(w, "simulate", func(ctx context.Context, j *Job) (any, error) {
			return s.cachedResult(j, "serve/simulate", keyReq, req.Options.NoCache, func() (any, error) {
				bs, err := s.session(j).SimulateBatch(ctx, req.Topology, req.Traffic, req.Routes, spec)
				if err != nil {
					return nil, err
				}
				out := batchSimulateResult{Variants: make([]variantResult, len(bs.Variants))}
				for i, v := range bs.Variants {
					out.Variants[i] = variantResult{Seed: v.Seed, Load: v.Load, simulateResult: toSimulateResult(v.Stats)}
				}
				return out, nil
			})
		})
		return
	}
	s.enqueue(w, "simulate", func(ctx context.Context, j *Job) (any, error) {
		return s.cachedResult(j, "serve/simulate", keyReq, req.Options.NoCache, func() (any, error) {
			st, err := s.session(j).Simulate(ctx, req.Topology, req.Traffic, req.Routes, cfg)
			if err != nil {
				return nil, err
			}
			return toSimulateResult(st), nil
		})
	})
}

// maxEpochEvents bounds the sim_epoch events one simulate job logs over
// all its lanes, lanes × max_cycles / epoch_cycles. It exceeds
// wormhole.MaxLanes, so every lane may log at least one.
const maxEpochEvents = 10_000

// checkSimulate refuses a simulate config before its job is enqueued:
// anything the simulator would refuse, a lane over its flit budget on
// the posted topology, a seeds × loads product over wormhole.MaxLanes
// (an empty axis counts as one value), and an epoch_cycles that would
// log more than maxEpochEvents events over the job's lanes. An unset
// epoch_cycles gets the Session's default period, lengthened where
// max_cycles and the lane count call for it, so that a long job's event
// log stays within the same bound.
func checkSimulate(cfg *nocdr.SimConfig, top *nocdr.Topology, seeds, loads int) error {
	if err := wormhole.CheckConfig(*cfg, top.TotalVCs()); err != nil {
		return err
	}
	lanes, err := wormhole.CheckLanes(max(1, seeds), max(1, loads))
	if err != nil {
		return err
	}
	perLane := int64(maxEpochEvents / lanes)
	if cfg.EpochCycles == 0 {
		if cfg.MaxCycles/nocdr.DefaultEpochCycles > perLane {
			cfg.EpochCycles = (cfg.MaxCycles-1)/perLane + 1
		}
		return nil
	}
	if cfg.MaxCycles/cfg.EpochCycles > perLane {
		return fmt.Errorf("%w: epoch_cycles %d logs more than %d epoch events over %d lane(s) of max_cycles %d",
			nocerr.ErrInvalidInput, cfg.EpochCycles, maxEpochEvents, lanes, cfg.MaxCycles)
	}
	return nil
}

// reconfigureRequest is the POST /v1/reconfigure body: a removed design
// bundle (the `nocexp design` artifact) plus the link faults to apply in
// order.
type reconfigureRequest struct {
	Design  *nocdr.ReconfigDesign `json:"design"`
	Faults  []int                 `json:"faults"`
	Options struct {
		VCLimit       int    `json:"vc_limit"`
		MaxIterations int    `json:"max_iterations"`
		Policy        string `json:"policy"`    // "", "best", "forward", "backward"
		Selection     string `json:"selection"` // "", "smallest", "first"
		SkipSim       bool   `json:"skip_sim"`
		SimCycles     int64  `json:"sim_cycles"`
	} `json:"options"`
}

// reconfigureResult is a finished reconfigure job's result document: the
// evolved design plus one delta per committed fault event.
type reconfigureResult struct {
	VCsAdded int                    `json:"vcs_added"`
	Deltas   []*nocdr.ReconfigDelta `json:"deltas"`
	Design   *nocdr.ReconfigDesign  `json:"design"`
}

func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	var req reconfigureRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Design == nil || len(req.Faults) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: design and at least one fault are required", nocerr.ErrInvalidInput))
		return
	}
	opts, err := removalOptions(req.Options.Policy, req.Options.Selection,
		nocdr.WithVCLimit(req.Options.VCLimit),
		nocdr.WithMaxIterations(req.Options.MaxIterations))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	faults := make([]nocdr.LinkID, 0, len(req.Faults))
	for _, f := range req.Faults {
		faults = append(faults, nocdr.LinkID(f))
	}
	ropts := nocdr.ReconfigOptions{SkipSim: req.Options.SkipSim, SimCycles: req.Options.SimCycles}
	s.enqueue(w, "reconfigure", func(ctx context.Context, j *Job) (any, error) {
		res, err := s.session(j, opts...).Reconfigure(ctx, req.Design, faults, ropts)
		if err != nil {
			return nil, err
		}
		vcs := 0
		for _, d := range res.Deltas {
			vcs += d.VCsAdded
		}
		return reconfigureResult{
			VCsAdded: vcs,
			Deltas:   res.Deltas,
			Design:   res.Design,
		}, nil
	})
}

// enqueue submits the job and answers 202 with its ID and links. A full
// backlog is load, not failure: the client is told when to come back.
func (s *Server) enqueue(w http.ResponseWriter, kind string, run func(ctx context.Context, j *Job) (any, error)) {
	j, err := s.submit(kind, run)
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": j.ID,
		"links": map[string]string{
			"self":   "/v1/jobs/" + j.ID,
			"events": "/v1/jobs/" + j.ID + "/events",
			"cancel": "/v1/jobs/" + j.ID + "/cancel",
		},
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.statuses()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobCertificate re-checks a finished remove or reconfigure job's
// output design through the independent checker (internal/certify) and
// answers with the machine-checkable certificate: a topological order of
// the rebuilt channel-dependency graph as the acyclicity witness. The
// certificate is derived on demand from the stored result document, so
// cached and recomputed jobs certify identically.
func (s *Server) handleJobCertificate(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st := j.snapshot()
	if st.Kind != "remove" && st.Kind != "reconfigure" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: certificates are issued for remove and reconfigure jobs, not %q", nocerr.ErrInvalidInput, st.Kind))
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("%w: job %s is %s; a certificate requires a completed job", nocerr.ErrInvalidInput, st.ID, st.State))
		return
	}
	// The result document is either the typed struct (computed this
	// process) or the decoded canonical cache bytes; re-marshaling
	// normalizes both to the same JSON, from which the design bundle is
	// carved: reconfigure results carry it whole under "design", remove
	// results as sibling "topology"/"routes" fields.
	doc, err := json.Marshal(st.Result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var envelope struct {
		Design   json.RawMessage `json:"design"`
		Topology json.RawMessage `json:"topology"`
		Routes   json.RawMessage `json:"routes"`
	}
	if err := json.Unmarshal(doc, &envelope); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	designJSON := []byte(envelope.Design)
	if len(designJSON) == 0 || string(designJSON) == "null" {
		designJSON, err = json.Marshal(struct {
			Topology json.RawMessage `json:"topology"`
			Routes   json.RawMessage `json:"routes"`
		}{envelope.Topology, envelope.Routes})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	cert, err := certify.Check(designJSON, "post")
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("certify: %w", err))
		return
	}
	if err := certify.Validate(cert, designJSON); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("certify: witness validation failed: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, cert)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.cancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// ssePingInterval is how often an idle event stream emits a comment
// frame. Pings keep intermediaries from timing the connection out and
// let streaming clients (runner.Sharded) run an idle watchdog that is
// strictly longer, so a healthy-but-quiet job never trips it. A var so
// tests can shorten the quiet period.
var ssePingInterval = 15 * time.Second

// handleJobEvents streams the job's event feed as Server-Sent Events:
// the full buffer is replayed first, then live events as they are
// emitted, then one terminal "state" event, and the stream closes.
// Quiet stretches carry ": ping" comments every ssePingInterval. A
// shard job (POST /v1/sweep?shard=i/n) records no events, so its
// stream is pings and the terminal state alone.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ping := time.NewTicker(ssePingInterval)
	defer ping.Stop()

	next := 0
	for {
		j.mu.Lock()
		events := j.events[next:]
		state := j.state
		wake := j.wake
		j.mu.Unlock()

		for _, ev := range events {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, ev.Data)
		}
		next += len(events)
		if len(events) > 0 {
			flusher.Flush()
		}
		if state.terminal() {
			data, _ := json.Marshal(j.snapshot())
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
			flusher.Flush()
			return
		}
		select {
		case <-wake:
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// decode reads a bounded JSON body: oversized bodies are answered 413
// (the limit is Options.MaxBodyBytes), malformed ones 400.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: request body exceeds %d bytes", nocerr.ErrInvalidInput, mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", nocerr.ErrInvalidInput, err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
