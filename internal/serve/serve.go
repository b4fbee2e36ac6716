// Package serve is the HTTP/JSON face of the library: a small job
// service that accepts deadlock-removal, sweep and simulation requests,
// executes them concurrently on a shared worker pool, and makes their
// progress observable — by polling GET /v1/jobs/{id} or by streaming the
// Session event feed over Server-Sent Events. It exists for the
// deployment story the related reconfiguration literature (DBR, Remote
// Control) argues for: long-running removal jobs must be observable and
// interruptible, not fire-and-forget library calls.
//
// API (all bodies JSON):
//
//	POST /v1/remove            topology+routes (+options)    → {"id": ...}
//	POST /v1/sweep             grid (+simulate/parallel/sim) → {"id": ...}
//	POST /v1/simulate          topology+traffic+routes+config→ {"id": ...}
//	POST /v1/reconfigure       design bundle+faults (+options)→ {"id": ...}
//	GET  /v1/jobs              all job statuses
//	GET  /v1/jobs/{id}         one job's status (+result when done)
//	GET  /v1/jobs/{id}/events  Server-Sent Events progress stream
//	POST /v1/jobs/{id}/cancel  cooperative cancellation
//	POST /v1/workers/register  fleet join: {"url": ...} → id + heartbeat contract
//	POST /v1/workers/{id}/heartbeat  fleet liveness (404 once retired)
//	GET  /v1/workers           live worker registry
//	GET  /v1/cache             result-cache counters
//	POST /v1/cache/seed        accept warm cache entries: {"entries": [...]}
//	GET  /v1/cache/{key}       one raw cache value (404 on miss)
//	GET  /healthz              liveness: status, role, uptime, worker count
//
// With Options.AuthToken set, every mutating endpoint (the POSTs above)
// requires `Authorization: Bearer <token>`; reads stay open. A full job
// backlog answers 429 with a Retry-After derived from queue pressure
// rather than failing the request permanently.
//
// Concurrency model: submissions enqueue a job and return immediately
// with its ID; a fixed pool of workers (Options.Workers) executes jobs,
// each under its own cancelable context derived from the server's.
// Sweep jobs additionally fan their grid out onto the experiment
// runner's own pool (Session.WithParallel), so one sweep job can use
// many cores while the job pool bounds how many requests run at once.
// Everything is race-clean: job state is guarded by one mutex per job
// plus a server-level registry mutex (pinned by -race tests).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/nocerr"
)

// Options configures a Server.
type Options struct {
	// Workers is the job pool size — how many jobs execute at once.
	// Default max(8, NumCPU).
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started jobs;
	// submissions beyond it are rejected with 429 + Retry-After.
	// Default 1024.
	QueueDepth int
	// SweepParallel is the per-sweep runner worker count. Default
	// NumCPU.
	SweepParallel int
	// MaxRetainedJobs bounds the registry: once more jobs than this
	// exist, the oldest *terminal* jobs (with their result documents
	// and event buffers) are evicted on each new submission, so a
	// long-running server holds steady-state memory. Queued and
	// running jobs are never evicted. Default 512.
	MaxRetainedJobs int
	// MaxBodyBytes bounds request bodies; larger submissions are
	// answered 413. Default 32 MiB.
	MaxBodyBytes int64
	// Cache, when non-nil, content-addresses job results: /v1/remove and
	// /v1/simulate jobs whose semantic inputs hash to a stored entry are
	// answered from it (status carries cached:true), concurrent
	// identical submissions collapse to one execution, and sweep jobs
	// consult it per cell. GET /v1/cache exposes the counters.
	Cache *fabric.Cache
	// AuthToken guards every mutating endpoint behind shared bearer
	// auth ("" = open). Reads (job status, events, healthz, worker
	// list, cache stats) stay open.
	AuthToken string
	// Role is what /healthz reports this instance as: "coordinator"
	// (default) or "worker" (an instance that joined a fleet).
	Role string
	// HeartbeatInterval/MissedBudget parameterize the worker registry
	// (defaults fabric.DefaultHeartbeatInterval/DefaultMissedBudget).
	HeartbeatInterval time.Duration
	MissedBudget      int
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = max(8, runtime.NumCPU())
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 1024
	}
	if o.SweepParallel < 1 {
		o.SweepParallel = runtime.NumCPU()
	}
	if o.MaxRetainedJobs < 1 {
		o.MaxRetainedJobs = 512
	}
	if o.MaxBodyBytes < 1 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.Role == "" {
		o.Role = "coordinator"
	}
	return o
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no further state transition can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// event is one buffered progress entry: a dense sequence number, the
// event kind, and its JSON payload (encoded once, at emission).
type event struct {
	Seq  int             `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Job is one submitted unit of work. All fields behind mu; readers take
// snapshots.
type Job struct {
	ID      string
	Kind    string // "remove" | "sweep" | "simulate"
	run     func(ctx context.Context, j *Job) (any, error)
	cancel  context.CancelFunc
	created time.Time

	mu       sync.Mutex
	state    State
	events   []event
	wake     chan struct{} // closed+replaced on every append/state change
	result   any
	errMsg   string
	cached   bool
	started  time.Time
	finished time.Time
}

// setCached marks the job's result as served from the result cache.
func (j *Job) setCached() {
	j.mu.Lock()
	j.cached = true
	j.mu.Unlock()
}

// emit appends one progress event and wakes streamers. Payload must be
// JSON-marshalable; failures are folded into an error event rather than
// dropped silently.
func (j *Job) emit(kind string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data, _ = json.Marshal(map[string]string{"marshal_error": err.Error()})
	}
	j.mu.Lock()
	j.events = append(j.events, event{Seq: len(j.events), Kind: kind, Data: data})
	j.broadcastLocked()
	j.mu.Unlock()
}

// broadcastLocked wakes every goroutine waiting on the job; callers hold
// mu.
func (j *Job) broadcastLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// snapshot returns the job's status plus the current event count under
// one lock acquisition.
func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:     j.ID,
		Kind:   j.Kind,
		State:  j.state,
		Events: len(j.events),
		Error:  j.errMsg,
		Cached: j.cached,
	}
	if j.state.terminal() {
		st.Result = j.result
	}
	if len(j.events) > 0 {
		last := j.events[len(j.events)-1]
		st.LastEvent = &last
	}
	return st
}

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  State  `json:"state"`
	Events int    `json:"events"`
	// LastEvent is the most recent progress event, for cheap polling
	// without the SSE stream.
	LastEvent *event `json:"last_event,omitempty"`
	Error     string `json:"error,omitempty"`
	// Cached marks a result served from the content-addressed cache
	// (byte-identical to a recomputation) rather than computed.
	Cached bool `json:"cached,omitempty"`
	// Result is the job's outcome document, present once terminal.
	Result any `json:"result,omitempty"`
}

// Server owns the job registry and the worker pool. Create with New,
// mount Handler on an http.Server, and Close on shutdown.
type Server struct {
	opts     Options
	baseCtx  context.Context
	stop     context.CancelFunc
	registry *fabric.Registry
	started  time.Time

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a Server's worker pool. The pool runs until Close.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		baseCtx: ctx,
		stop:    cancel,
		registry: fabric.NewRegistry(fabric.RegistryOptions{
			HeartbeatInterval: opts.HeartbeatInterval,
			MissedBudget:      opts.MissedBudget,
		}),
		started: time.Now(),
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, opts.QueueDepth),
	}
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cancel cancels every running job's context (and fails queued jobs
// fast once a worker pops them) without tearing the pool down. Call it
// before http.Server.Shutdown: SSE streams only end when their job goes
// terminal, so canceling first lets Shutdown's handler-drain complete
// instead of riding out its timeout.
func (s *Server) Cancel() {
	s.stop()
}

// Close cancels every job's context, stops accepting work, and waits for
// the workers to drain. The Handler must not receive further requests
// after Close.
func (s *Server) Close() {
	s.stop()
	close(s.queue)
	s.wg.Wait()
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob drives one job through its lifecycle.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while still in the queue: nothing to run.
		j.mu.Unlock()
		cancel()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.broadcastLocked()
	j.mu.Unlock()

	result, err := j.run(ctx, j)
	cancel()

	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case nocerrIsCanceled(err):
		j.state = StateCanceled
		j.errMsg = err.Error()
		// A canceled job may still carry a partial result (sweeps do).
		j.result = result
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.broadcastLocked()
	j.mu.Unlock()
}

// nocerrIsCanceled reports whether err is a cooperative cancellation.
func nocerrIsCanceled(err error) bool {
	return err != nil && (errors.Is(err, nocerr.ErrCanceled) || errors.Is(err, context.Canceled))
}

// submit registers and enqueues a job built around run, evicting the
// oldest terminal jobs beyond the retention cap.
func (s *Server) submit(kind string, run func(ctx context.Context, j *Job) (any, error)) (*Job, error) {
	s.mu.Lock()
	s.evictLocked()
	s.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", s.seq),
		Kind:    kind,
		run:     run,
		created: time.Now(),
		state:   StateQueued,
		wake:    make(chan struct{}),
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()

	select {
	case s.queue <- j:
		return j, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.ID)
		// Remove this job's own ID — another submission may have
		// appended behind us, so truncating the tail would evict the
		// wrong entry.
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == j.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: job queue full (%d pending)", s.opts.QueueDepth)
	}
}

// evictLocked drops the oldest terminal jobs until the registry is
// below the retention cap; the caller holds s.mu. It stops at the last
// job it has to evict: the rest of the order moves down as one block.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.opts.MaxRetainedJobs + 1
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	i := 0
	for ; i < len(s.order) && excess > 0; i++ {
		id := s.order[i]
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state.terminal()
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = append(kept, s.order[i:]...)
}

// retryAfterSeconds turns job-table pressure into the 429 Retry-After
// hint: roughly how many seconds until the pool has chewed through the
// current backlog, assuming each worker clears about two queued jobs a
// second. A near-empty queue says "come back in a second"; a deep one
// scales up, capped at 30s so a client never parks itself for minutes
// on a queue that drains in seconds.
func (s *Server) retryAfterSeconds() int {
	per := 2 * s.opts.Workers
	secs := (len(s.queue) + per - 1) / per
	return min(max(secs, 1), 30)
}

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %q", nocerr.ErrNotFound, id)
	}
	return j, nil
}

// cancelJob requests cooperative cancellation: a queued job flips to
// canceled immediately, a running one has its context canceled and
// reaches a terminal state when its cancellation check fires.
func (s *Server) cancelJob(id string) (*Job, error) {
	j, err := s.job(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	switch {
	case j.state == StateQueued:
		j.state = StateCanceled
		j.errMsg = nocerr.ErrCanceled.Error()
		j.broadcastLocked()
	case j.state == StateRunning && j.cancel != nil:
		j.cancel()
	}
	j.mu.Unlock()
	return j, nil
}

// statuses snapshots every job in creation order.
func (s *Server) statuses() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// session builds the per-job Session: every nocdr Event is forwarded to
// the job's buffered feed under the job's own mutex, so any number of
// SSE streamers and pollers can observe it race-free. The extra options
// apply last, so they override these defaults.
func (s *Server) session(j *Job, extra ...nocdr.Option) *nocdr.Session {
	opts := []nocdr.Option{
		nocdr.WithParallel(s.opts.SweepParallel),
		nocdr.WithProgress(func(e nocdr.Event) {
			j.emit(e.Kind.String(), eventPayload(e))
		}),
	}
	if s.opts.Cache != nil {
		// Sweep jobs consult the server's result cache per cell.
		opts = append(opts, nocdr.WithResultCache(s.opts.Cache))
	}
	opts = append(opts, extra...)
	return nocdr.NewSession(opts...)
}

// cachedResult runs compute under the server's whole-job result cache:
// the job's semantic inputs (kind + parts, hashed content-addressed)
// either hit a stored document, collapse onto an identical in-flight
// computation, or compute cold and store. Both the cold and the cached
// path decode the stored canonical bytes, so the result document a
// client reads is byte-identical either way. With no cache configured,
// compute runs directly.
func (s *Server) cachedResult(j *Job, kind string, parts any, noCache bool, compute func() (any, error)) (any, error) {
	if s.opts.Cache == nil {
		return compute()
	}
	data, cached, err := s.opts.Cache.Do(fabric.Key(kind, parts), noCache, func() ([]byte, error) {
		res, err := compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
	if err != nil {
		return nil, err
	}
	if cached {
		j.setCached()
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("serve: corrupt cached result: %w", err)
	}
	return doc, nil
}

// eventPayload shapes a nocdr.Event for the wire.
func eventPayload(e nocdr.Event) any {
	switch e.Kind {
	case nocdr.EventCycleBroken:
		chans := make([]map[string]int, 0, len(e.Break.NewChannels))
		for _, ch := range e.Break.NewChannels {
			chans = append(chans, map[string]int{"link": int(ch.Link), "vc": ch.VC})
		}
		return map[string]any{
			"iteration":    e.Iteration,
			"direction":    e.Break.Direction.String(),
			"edge_pos":     e.Break.EdgePos,
			"cost":         e.Break.Cost,
			"cycle_len":    len(e.Break.Cycle),
			"new_channels": chans,
			"reroutes":     e.Break.Reroutes,
		}
	case nocdr.EventVCAdded:
		return map[string]any{
			"iteration": e.Iteration,
			"link":      int(e.Channel.Link),
			"vc":        e.Channel.VC,
		}
	case nocdr.EventSweepCell:
		return map[string]any{
			"index": e.CellIndex,
			"total": e.CellTotal,
			"cell":  e.Cell,
		}
	case nocdr.EventSimEpoch:
		return e.Epoch
	case nocdr.EventShardAssigned:
		return map[string]any{
			"shard":  e.Shard,
			"shards": e.ShardTotal,
			"worker": e.Worker,
		}
	case nocdr.EventWorkerRetry:
		return map[string]any{
			"shard":  e.Shard,
			"worker": e.Worker,
			"error":  e.WorkerErr,
		}
	case nocdr.EventReconfigStage:
		return map[string]any{
			"stage": e.Stage,
			"fault": int(e.Fault),
		}
	case nocdr.EventReconfigDelta:
		return map[string]any{
			"fault": int(e.Fault),
			"delta": e.Delta,
		}
	}
	return nil
}
