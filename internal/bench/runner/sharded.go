// The sharded sweep dispatcher: the coordinator side of the distributed
// backend. It cuts the grid into DefaultShardCount shards (ShardOf),
// hands shards to remote `nocdr serve` workers over the /v1/sweep job
// API, follows each job's SSE event stream to its terminal state (status
// polling is the degrade path), requeues shards whose worker dies
// mid-flight, drains partial results on cancellation, and merges the
// shard reports into a report byte-identical to a single-process run.

package runner

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/nocerr"
)

// Sharded fans a sweep grid out across `nocdr serve` workers. The zero
// value plus a Workers list is ready to use:
//
//	rep, err := (&runner.Sharded{Workers: []string{"http://a:8080", "http://b:8080"}}).
//		RunContext(ctx, grid, opts)
//
// Determinism contract: the merged report is byte-identical to
// RunContext's output on the same grid and options, for any worker
// count, any scheduling order, and any pattern of worker failures the
// retry budget absorbs — cells are assigned to shards by a stable hash
// of their identity, every cell is evaluated by the same deterministic
// pipeline wherever it lands, and results are merged into pre-assigned
// slots.
type Sharded struct {
	// Workers are the base URLs of running `nocdr serve` instances
	// (scheme://host:port, no trailing slash required).
	Workers []string
	// Source, when non-nil, supplies live worker membership on top of the
	// static Workers list: its snapshot is admitted at start, and whenever
	// Updates signals, URLs never seen before join the fleet mid-run and
	// immediately start taking unowned shards. A URL retired for failures
	// is not re-admitted within the run, even if the source still lists
	// it. fabric.Watcher implements the contract.
	Source WorkerSource
	// JoinGrace bounds how long a run with a Source waits for a worker
	// to join while shards are pending and none are live (default 30s);
	// past it the run fails like an all-workers-dead run.
	JoinGrace time.Duration
	// AuthToken is the fleet bearer token attached to every worker call
	// ("" = open fleet).
	AuthToken string
	// Shards overrides DefaultShardCount. The shard count — not the
	// worker count — is the granularity of assignment, load balancing
	// and requeue, so it may exceed the worker count freely.
	Shards int
	// Client is the HTTP client; nil uses a plain &http.Client{} (no
	// global timeout — sweep jobs are long-lived and their SSE streams
	// stay open for the life of a shard; cancellation flows through the
	// run context instead). TLS fleets pass a client built from
	// fabric.HTTPClient(fabric.ClientTLS(...), 0).
	Client *http.Client
	// DisableStream skips the SSE subscription and drives every shard by
	// status polling alone — the degrade path, forced (tests, proxies
	// that buffer event streams).
	DisableStream bool
	// PollInterval is the job-status polling period on the degrade path
	// (default 25ms).
	PollInterval time.Duration
	// Retries is the attempt budget per shard across all workers
	// (default 3): a shard failing that many times fails the run with an
	// error wrapping nocerr.ErrWorker.
	Retries int
	// WorkerParallel overrides each worker's per-sweep runner pool size
	// (0 keeps the worker's own default).
	WorkerParallel int
	// DrainTimeout bounds how long a canceled run waits for workers to
	// surrender partial shard reports (default 10s).
	DrainTimeout time.Duration
	// OnAssign, when non-nil, observes every shard→worker assignment
	// (including reassignments after a failure).
	OnAssign func(shard, shards int, worker string)
	// OnRetry, when non-nil, observes every shard requeue: the shard,
	// the worker that failed it, and the failure.
	OnRetry func(shard int, worker string, err error)
}

func (d *Sharded) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return &http.Client{}
}

func (d *Sharded) pollInterval() time.Duration {
	if d.PollInterval > 0 {
		return d.PollInterval
	}
	return 25 * time.Millisecond
}

func (d *Sharded) drainTimeout() time.Duration {
	if d.DrainTimeout > 0 {
		return d.DrainTimeout
	}
	return 10 * time.Second
}

func (d *Sharded) joinGrace() time.Duration {
	if d.JoinGrace > 0 {
		return d.JoinGrace
	}
	return 30 * time.Second
}

// WorkerSource supplies live worker membership to the sharded
// dispatcher. WorkerURLs snapshots the current set; Updates signals that
// it changed (re-read WorkerURLs after receiving). The fabric package's
// Watcher, polling a coordinator's registry, is the canonical
// implementation.
type WorkerSource interface {
	WorkerURLs() []string
	Updates() <-chan struct{}
}

// shardRequest is the client side of serve's POST /v1/sweep body; field
// names mirror the server's request schema.
type shardRequest struct {
	Grid     Grid      `json:"grid"`
	Simulate bool      `json:"simulate"`
	Sim      SimParams `json:"sim"`
	Certify  bool      `json:"certify,omitempty"`
	Parallel int       `json:"parallel,omitempty"`
	Options  struct {
		VCLimit int    `json:"vc_limit"`
		Policy  string `json:"policy"`
		NoCache bool   `json:"no_cache,omitempty"`
	} `json:"options"`
}

// wireStatus is the slice of serve's job-status document the dispatcher
// reads while polling.
type wireStatus struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// policyWire maps the direction policy to serve's wire spelling.
func policyWire(p core.DirectionPolicy) string {
	switch p {
	case core.ForwardOnly:
		return "forward"
	case core.BackwardOnly:
		return "backward"
	default:
		return "best"
	}
}

// outcome is one finished (or failed) shard attempt.
type outcome struct {
	shard  int
	worker int
	rep    *Report
	err    error
	// dead marks the worker unusable: transport failures and unparseable
	// responses retire it; the shard requeues to the survivors.
	dead bool
}

// RunContext executes the grid across the dispatcher's workers and
// returns the merged report. Cancellation mirrors RunContext's serial
// contract: in-flight shard jobs are canceled on their workers, their
// partial results drained, unrun cells marked canceled, and the partial
// report returned with a nil error. Worker failures beyond the retry
// budget — or the death of every worker — fail the run with an error
// wrapping nocerr.ErrWorker.
func (d *Sharded) RunContext(ctx context.Context, grid Grid, opts Options) (*Report, error) {
	if len(d.Workers) == 0 && d.Source == nil {
		return nil, fmt.Errorf("%w: sharded sweep needs at least one worker URL", nocerr.ErrInvalidInput)
	}
	if opts.ShardCount != 0 {
		return nil, fmt.Errorf("%w: cannot nest a shard filter inside a sharded dispatch", nocerr.ErrInvalidInput)
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	grid = grid.normalized()
	opts.maxPaths = grid.MaxPaths
	shards := d.Shards
	if shards <= 0 {
		shards = DefaultShardCount
	}
	jobs := grid.Jobs()
	shardJobs := make([][]int, shards)
	for i, j := range jobs {
		s := ShardOf(j, shards)
		shardJobs[s] = append(shardJobs[s], i)
	}

	// Coordinator-side cache pre-pass, at shard granularity: a shard
	// every cell of which is cached is served locally and never
	// dispatched (its results enter the merge as one extra pseudo-shard
	// report — MergeShards accepts any partition). Shards with even one
	// cold cell dispatch whole, because a worker answers with all its
	// cells and the merge rejects duplicates — but their warm cells are
	// collected and seeded into the assigned worker's cache ahead of the
	// submit, so a dispatched partially-warm shard recomputes only its
	// cold cells. Every cell is probed (not stop-at-first-miss): the
	// misses are the price of knowing which entries to ship.
	var (
		pending      []int
		cacheRep     *Report
		cachedShards = make([]bool, shards)
		warm         map[int][]fabric.CacheEntry
	)
	for s := 0; s < shards; s++ {
		if len(shardJobs[s]) == 0 {
			continue
		}
		hits := make([]Result, 0, len(shardJobs[s]))
		var entries []fabric.CacheEntry
		if opts.CellCache != nil && !opts.NoCache {
			for _, i := range shardJobs[s] {
				key := CellKey(jobs[i], opts, grid.Loads)
				data, ok := opts.CellCache.Get(key)
				if !ok {
					continue
				}
				var r Result
				if err := json.Unmarshal(data, &r); err != nil || r.Job != jobs[i] {
					continue
				}
				// Same poisoned-salt guard as the local pre-pass: a stored
				// certificate from a different checker build voids the hit
				// (and, at shard granularity, that cell re-runs remotely).
				if opts.Certify && (r.Certify == nil || r.Certify.Salt != certify.Salt) {
					continue
				}
				hits = append(hits, r)
				entries = append(entries, fabric.CacheEntry{Key: key, Value: data})
			}
		}
		if len(hits) == len(shardJobs[s]) && len(hits) > 0 {
			cachedShards[s] = true
			if cacheRep == nil {
				cacheRep = &Report{Grid: grid}
			}
			cacheRep.Results = append(cacheRep.Results, hits...)
		} else {
			pending = append(pending, s)
			if len(entries) > 0 {
				if warm == nil {
					warm = make(map[int][]fabric.CacheEntry)
				}
				warm[s] = entries
			}
		}
	}
	if len(pending) > 0 && len(d.Workers) == 0 && d.Source != nil && len(d.Source.WorkerURLs()) == 0 && d.JoinGrace == 0 {
		// Fail fast rather than idle a full default grace when the fleet
		// is empty at start and the caller didn't opt into waiting.
		return nil, fmt.Errorf("%w: %d shard(s) to run and no live workers registered", nocerr.ErrWorker, len(pending))
	}
	retries := d.Retries
	if retries <= 0 {
		retries = 3
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// One goroutine per worker, fed one shard at a time over its own
	// channel; all scheduling state lives in this goroutine. Workers can
	// be admitted mid-run (spawn is only called from this goroutine), so
	// the fleet is a growing slice rather than a fixed array.
	type remote struct {
		url  string
		feed chan int
	}
	var (
		wg      sync.WaitGroup
		done    = make(chan outcome)
		fleet   []*remote
		known   = make(map[string]bool)
		free    []int
		updates <-chan struct{}
	)
	spawn := func(url string) {
		if url == "" || known[url] {
			return
		}
		known[url] = true
		w := &remote{url: url, feed: make(chan int)}
		wi := len(fleet)
		fleet = append(fleet, w)
		free = append(free, wi)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range w.feed {
				rep, dead, err := d.runShard(cctx, w.url, grid, shard, shards, warm[shard], opts)
				done <- outcome{shard: shard, worker: wi, rep: rep, err: err, dead: dead}
			}
		}()
	}
	for _, u := range d.Workers {
		spawn(u)
	}
	if d.Source != nil {
		for _, u := range d.Source.WorkerURLs() {
			spawn(u)
		}
		updates = d.Source.Updates()
	}

	// Global slot indices per cell key, consumed as progress callbacks
	// fire so OnResult reports the same indices a local run would.
	var slotOf map[string][]int
	if opts.OnResult != nil {
		slotOf = make(map[string][]int, len(jobs))
		for i, j := range jobs {
			k := j.Key()
			slotOf[k] = append(slotOf[k], i)
		}
	}

	var (
		reports     []*Report
		attempts    = make([]int, shards)
		inflight    int
		fatal       error
		interrupted bool
		progressed  int
		// graceBy is the join-grace deadline of an empty fleet: set when
		// the fleet empties, cleared when a worker is admitted, so
		// membership updates that admit no one cannot extend it.
		graceBy time.Time
		grace   waiter
	)
	defer grace.stop()
	noteResults := func(rep *Report) {
		for i := range rep.Results {
			res := rep.Results[i]
			progressed++
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "sweep %d/%d: %s\n", progressed, len(jobs), res.oneLine())
			}
			if opts.OnResult != nil {
				k := res.Job.Key()
				if slots := slotOf[k]; len(slots) > 0 {
					slotOf[k] = slots[1:]
					opts.OnResult(slots[0], len(jobs), res)
				}
			}
		}
	}
	if cacheRep != nil {
		// Cache-served shards complete up front, before any dispatch.
		noteResults(cacheRep)
		reports = append(reports, cacheRep)
	}
	ctxDone := ctx.Done()

	for {
		// Hand pending shards to free workers while the run is healthy.
		for len(pending) > 0 && len(free) > 0 && fatal == nil && !interrupted {
			w := free[len(free)-1]
			free = free[:len(free)-1]
			shard := pending[0]
			pending = pending[1:]
			if d.OnAssign != nil {
				d.OnAssign(shard, shards, fleet[w].url)
			}
			fleet[w].feed <- shard
			inflight++
		}
		if inflight == 0 {
			if len(pending) == 0 || fatal != nil || interrupted {
				break
			}
			// Shards remain but every admitted worker has been retired.
			if updates == nil {
				fatal = fmt.Errorf("%w: %d shard(s) unassigned and no workers left alive", nocerr.ErrWorker, len(pending))
				break
			}
			// Live-membership mode: wait (bounded) for a join instead of
			// failing — a fresh worker registering with the coordinator
			// picks the unowned shards up.
			if graceBy.IsZero() {
				graceBy = time.Now().Add(d.joinGrace())
			}
			select {
			case _, ok := <-updates:
				if !ok {
					// The source terminated (watcher closed): no join can
					// ever arrive, so fail like a source-less empty fleet.
					updates = nil
					continue
				}
				for _, u := range d.Source.WorkerURLs() {
					spawn(u)
				}
				if len(free) > 0 {
					graceBy = time.Time{}
				}
			case <-grace.arm(time.Until(graceBy)):
				fatal = fmt.Errorf("%w: %d shard(s) unassigned and no worker joined within %v", nocerr.ErrWorker, len(pending), d.joinGrace())
			case <-ctxDone:
				interrupted = true
				ctxDone = nil
			}
			continue
		}
		select {
		case o := <-done:
			inflight--
			// A dead worker never returns to the free list; liveness IS
			// membership in free or an in-flight shard.
			if !o.dead {
				free = append(free, o.worker)
			}
			switch {
			case o.err == nil:
				if o.rep != nil {
					reports = append(reports, o.rep)
					if o.rep.Canceled {
						interrupted = true
					}
					noteResults(o.rep)
				}
			case cctx.Err() != nil:
				// Failure raced the cancellation: keep any partial result
				// and let the drain finish.
				interrupted = true
				if o.rep != nil {
					reports = append(reports, o.rep)
				}
			default:
				attempts[o.shard]++
				if d.OnRetry != nil {
					d.OnRetry(o.shard, fleet[o.worker].url, o.err)
				}
				if attempts[o.shard] >= retries {
					fatal = fmt.Errorf("%w: shard %d/%d failed after %d attempt(s): %v",
						nocerr.ErrWorker, o.shard, shards, attempts[o.shard], o.err)
					cancel()
				} else {
					pending = append(pending, o.shard)
				}
			}
		case _, ok := <-updates:
			if !ok {
				// Closed source: keep running with the workers already
				// admitted, but stop selecting on the dead channel.
				updates = nil
				continue
			}
			// Mid-run membership change: admit workers never seen before;
			// the assignment loop hands them pending shards immediately.
			for _, u := range d.Source.WorkerURLs() {
				spawn(u)
			}
		case <-ctxDone:
			// Stop assigning; in-flight shards drain cooperatively
			// through runShard's cancellation path. Nil the channel so a
			// closed Done cannot spin this loop.
			interrupted = true
			ctxDone = nil
		}
	}
	for _, w := range fleet {
		close(w.feed)
	}
	wg.Wait()

	if fatal != nil {
		return nil, fatal
	}
	rep, err := MergeShards(grid, reports...)
	if err != nil {
		return nil, err
	}
	if interrupted && ctx.Err() != nil {
		rep.Canceled = true
	}
	if opts.CellCache != nil {
		// Feed the coordinator cache from the merged report: every clean
		// cell a worker computed this run (cache-served shards already
		// hold these exact bytes and are skipped). rep.Results is in
		// jobs order, so index i is cell jobs[i].
		for i := range rep.Results {
			r := rep.Results[i]
			if cachedShards[ShardOf(jobs[i], shards)] || r.Error != "" || r.Canceled {
				continue
			}
			if data, err := json.Marshal(r); err == nil {
				opts.CellCache.Put(CellKey(jobs[i], opts, grid.Loads), data)
			}
		}
	}
	return rep, nil
}

// maxBackpressure bounds how many 429 rounds one shard submission rides
// out before the attempt is surrendered to the retry budget.
const maxBackpressure = 20

// streamIdleTimeout closes an SSE subscription that has gone silent: the
// server pings every ssePingInterval, so a stream this quiet means the
// peer is gone without having closed the connection. The dispatcher then
// degrades to status polling, whose per-request failures detect death.
const streamIdleTimeout = 60 * time.Second

// waiter is a reusable timer for the dispatcher's wait loops: one
// runtime timer serves every iteration, where time.After would allocate
// a fresh timer per 25ms tick and leak each until expiry.
type waiter struct{ t *time.Timer }

// arm (re)starts the timer for dur and returns its channel, first
// discarding any expiry an earlier select left unreceived.
func (w *waiter) arm(dur time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(dur)
		return w.t.C
	}
	if !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
	w.t.Reset(dur)
	return w.t.C
}

// sleep blocks for dur or until ctx is done (returning ctx's error).
func (w *waiter) sleep(ctx context.Context, dur time.Duration) error {
	select {
	case <-w.arm(dur):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (w *waiter) stop() {
	if w.t != nil {
		w.t.Stop()
	}
}

// backpressureError is a worker's 429 submit answer: the job table is
// full but the worker is healthy; after carries its Retry-After
// guidance.
type backpressureError struct{ after time.Duration }

func (e *backpressureError) Error() string {
	return fmt.Sprintf("job table full (retry after %v)", e.after)
}

// parseRetryAfter reads a Retry-After header as whole seconds, clamped
// to [1s, 30s]; anything unparseable gets the old fixed 1s.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 1 {
		return time.Second
	}
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// runShard submits one shard to a worker and follows its job to a
// terminal state: first over the job's SSE event stream (zero status
// polls on the happy path), falling back to polling when the stream is
// unavailable or drops. A 429 submit answer is backpressure, not
// failure — the worker's Retry-After is honored and the submit retried
// without retiring anyone. A failed or malformed submission gets one
// immediate resubmission, and a failed status poll one immediate
// re-poll, before the worker is declared dead (dead=true retires the
// worker; the coordinator requeues the shard elsewhere). On cancellation
// the worker-side job is canceled and its partial report drained.
func (d *Sharded) runShard(ctx context.Context, worker string, grid Grid, shard, shards int, seed []fabric.CacheEntry, opts Options) (rep *Report, dead bool, err error) {
	req := shardRequest{
		Grid:     grid,
		Simulate: opts.Simulate,
		Sim:      opts.Sim,
		Certify:  opts.Certify,
		Parallel: d.WorkerParallel,
	}
	req.Options.VCLimit = opts.VCLimit
	req.Options.Policy = policyWire(opts.Policy)
	req.Options.NoCache = opts.NoCache
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}

	wait := &waiter{}
	defer wait.stop()

	// Warm hand-off: ship the coordinator's cached cells for this shard
	// before submitting, so the worker's own cache pre-pass answers them
	// without computing. Best-effort — a worker without a cache (409) or
	// a failed POST just computes those cells cold.
	if len(seed) > 0 {
		_ = fabric.SeedEntries(ctx, worker, d.AuthToken, d.client(), seed)
	}

	id, err := d.submitBackoff(ctx, worker, shard, shards, body, wait)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, fmt.Errorf("%w: %w", nocerr.ErrCanceled, ctx.Err())
		}
		return nil, true, fmt.Errorf("worker %s: submit shard %d/%d: %w", worker, shard, shards, err)
	}

	var st *wireStatus
	if !d.DisableStream {
		st = d.streamTerminal(ctx, worker, id)
	}
	if st == nil && ctx.Err() != nil {
		return d.drain(worker, id)
	}
	// Degrade path: the stream was unavailable (older worker, buffering
	// proxy) or dropped mid-job. The job is unaffected server-side, so
	// fall back to status polling.
	pollFailures := 0
	for st == nil {
		cur, err := d.jobStatus(ctx, worker, id)
		if err != nil {
			if ctx.Err() != nil {
				return d.drain(worker, id)
			}
			// Absorb one poll hiccup (the job keeps running server-side);
			// two consecutive failures retire the worker.
			if pollFailures++; pollFailures > 1 {
				return nil, true, fmt.Errorf("worker %s: poll shard %d/%d: %w", worker, shard, shards, err)
			}
			if wait.sleep(ctx, d.pollInterval()) != nil {
				return d.drain(worker, id)
			}
			continue
		}
		pollFailures = 0
		switch cur.State {
		case "done", "failed", "canceled":
			st = cur
		default:
			if wait.sleep(ctx, d.pollInterval()) != nil {
				return d.drain(worker, id)
			}
		}
	}
	switch st.State {
	case "done":
		rep, err := decodeShardReport(st.Result)
		if err != nil {
			return nil, true, fmt.Errorf("worker %s: shard %d/%d result: %w", worker, shard, shards, err)
		}
		return rep, false, nil
	case "failed":
		return nil, false, fmt.Errorf("worker %s: shard %d/%d failed: %s", worker, shard, shards, st.Error)
	default: // canceled
		// Canceled server-side (shutdown, operator): whatever partial
		// result exists still merges; missing cells surface as
		// canceled slots.
		rep, _ := decodeShardReport(st.Result)
		if rep != nil {
			rep.Canceled = true
		}
		return rep, false, nil
	}
}

// submitBackoff submits the shard, absorbing backpressure and transient
// hiccups: a 429 answer waits out the worker's Retry-After and resubmits
// (the worker is healthy, just full — up to maxBackpressure rounds),
// while any other failure gets one immediate retry before giving up.
func (d *Sharded) submitBackoff(ctx context.Context, worker string, shard, shards int, body []byte, wait *waiter) (string, error) {
	retried := false
	backpressured := 0
	for {
		id, err := d.submit(ctx, worker, shard, shards, body)
		var full *backpressureError
		switch {
		case err == nil:
			return id, nil
		case ctx.Err() != nil:
			return "", err
		case errors.As(err, &full):
			if backpressured++; backpressured > maxBackpressure {
				return "", err
			}
			if werr := wait.sleep(ctx, full.after); werr != nil {
				return "", err
			}
		case !retried:
			retried = true
		default:
			return "", err
		}
	}
}

// streamTerminal subscribes to the job's SSE event feed and blocks until
// the terminal `state` event arrives, returning its status document. A
// nil return means the stream was unavailable or dropped — the caller
// degrades to status polling; the job is unaffected server-side. An idle
// watchdog closes streams silent past streamIdleTimeout (the server
// pings idle streams, so that much silence means a dead peer).
func (d *Sharded) streamTerminal(ctx context.Context, worker, id string) *wireStatus {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(worker, "/")+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil
	}
	req.Header.Set("Accept", "text/event-stream")
	fabric.SetAuth(req, d.AuthToken)
	resp, err := d.client().Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil
	}
	dog := time.AfterFunc(streamIdleTimeout, func() { resp.Body.Close() })
	defer dog.Stop()

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	// Terminal state events embed the full shard report; size the line
	// budget like the job API's own body budget.
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		dog.Reset(streamIdleTimeout)
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			if event == "state" && data.Len() > 0 {
				var st wireStatus
				if json.Unmarshal(data.Bytes(), &st) == nil {
					switch st.State {
					case "done", "failed", "canceled":
						return &st
					}
				}
			}
			event = ""
			data.Reset()
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		}
		// id: lines and ": ping" comments need no handling.
	}
	return nil
}

// drain is the cancellation path of runShard: cancel the worker-side job
// and poll (off the run context, bounded by DrainTimeout) until it goes
// terminal, so the partial shard report is not lost. A worker that
// cannot be drained simply contributes nothing — its cells merge as
// canceled slots.
func (d *Sharded) drain(worker, id string) (*Report, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d.drainTimeout())
	defer cancel()
	creq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs/"+id+"/cancel", nil)
	if err != nil {
		return nil, false, nil
	}
	fabric.SetAuth(creq, d.AuthToken)
	if resp, err := d.client().Do(creq); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	wait := &waiter{}
	defer wait.stop()
	for {
		st, err := d.jobStatus(ctx, worker, id)
		if err != nil {
			return nil, false, nil
		}
		switch st.State {
		case "done", "failed", "canceled":
			rep, _ := decodeShardReport(st.Result)
			if rep != nil && st.State != "done" {
				rep.Canceled = true
			}
			return rep, false, nil
		}
		if wait.sleep(ctx, d.pollInterval()) != nil {
			return nil, false, nil
		}
	}
}

// submit POSTs the shard's sweep request and returns the accepted job ID.
func (d *Sharded) submit(ctx context.Context, worker string, shard, shards int, body []byte) (string, error) {
	url := fmt.Sprintf("%s/v1/sweep?shard=%d/%d", strings.TrimSuffix(worker, "/"), shard, shards)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	fabric.SetAuth(req, d.AuthToken)
	resp, err := d.client().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return "", &backpressureError{after: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		return "", fmt.Errorf("malformed submit response %q", truncateBody(data))
	}
	return accepted.ID, nil
}

// jobStatus fetches one job-status document.
func (d *Sharded) jobStatus(ctx context.Context, worker, id string) (*wireStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(worker, "/")+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	fabric.SetAuth(req, d.AuthToken)
	resp, err := d.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, truncateBody(data))
	}
	var st wireStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("malformed status response %q", truncateBody(data))
	}
	return &st, nil
}

// decodeShardReport parses a sweep job's result document.
func decodeShardReport(raw json.RawMessage) (*Report, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("malformed report %q", truncateBody(raw))
	}
	return &rep, nil
}

// truncateBody keeps error messages readable when a worker answers with
// a large or binary body.
func truncateBody(b []byte) string {
	const keep = 160
	if len(b) <= keep {
		return string(b)
	}
	return string(b[:keep]) + "…"
}
