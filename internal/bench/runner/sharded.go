// The sharded sweep dispatcher: the coordinator side of the distributed
// backend. It cuts the grid into shardCount shards (ShardOf),
// hands shards to remote `nocdr serve` workers over the /v1/sweep job
// API, follows each job's SSE event stream to its terminal state,
// requeues shards whose worker dies mid-flight, drains partial results
// on cancellation, and places every returned cell into its grid slot, so
// the report is byte-identical to a single-process run.

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
	"net/url"
	"strconv"
	"strings"
	"time"

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
// pipeline wherever it lands, and results are written into pre-assigned
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
	// it. A run whose fleet is empty at start fails at once; one whose
	// fleet empties mid-run waits up to 30s for a worker to join before it
	// fails like an all-workers-dead run. fabric.Watcher implements the
	// contract.
	Source WorkerSource
	// AuthToken is the fleet bearer token attached to every worker call
	// ("" = open fleet).
	AuthToken string
	// Client is the HTTP client; nil uses a plain &http.Client{}. Sweep
	// jobs are long-lived, so the client needs no global timeout: the
	// dispatcher bounds each request by its own idle limit instead, and
	// cancellation flows through the run context. TLS fleets pass a
	// client built from fabric.HTTPClient(fabric.ClientTLS(...), 0).
	Client *http.Client
	// OnAssign, when non-nil, observes every shard→worker assignment
	// (including reassignments after a failure); shards is the run's
	// shard count.
	OnAssign func(shard, shards int, worker string)
	// OnRetry, when non-nil, observes every shard requeue: the shard,
	// the worker that failed it, and the failure.
	OnRetry func(shard int, worker string, err error)
}

const (
	// shardAttempts is the attempt budget per shard across all workers:
	// a shard failing that many times fails the run with an error
	// wrapping nocerr.ErrWorker.
	shardAttempts = 3
	// drainTimeout bounds how long a canceled run waits for workers to
	// surrender partial shard reports.
	drainTimeout = 10 * time.Second
	// maxBackpressure bounds how many 429 rounds one shard submission
	// rides out before the attempt is surrendered to the retry budget.
	maxBackpressure = 20
	// shardsPerWorker is how many shards a run over a fixed fleet of
	// unsimulated cells cuts per worker: enough that dynamic hand-out
	// still balances cells of uneven cost, few enough that a small grid
	// does not pay a submit and a stream for every cell or two.
	shardsPerWorker = 4
)

// shardCount is the number of shards a run of d cuts its grid into,
// fixed for the run. A fixed fleet whose cells are not simulated gets
// shardsPerWorker shards per distinct worker URL, at most
// DefaultShardCount: such a cell can cost less than a shard's submit
// and event stream, so fewer shards save round trips. Every other run
// keeps DefaultShardCount. A simulated cell runs for tens of
// milliseconds, beside which a round trip is noise and finer shards
// balance the workers better. A live fleet (Source) may grow mid-run,
// and a worker that joins can take only a shard nobody owns yet.
func (d *Sharded) shardCount(opts Options) int {
	distinct := make(map[string]bool, len(d.Workers))
	for _, u := range d.Workers {
		if u != "" {
			distinct[u] = true
		}
	}
	if d.Source != nil || opts.Simulate || len(distinct) == 0 {
		return DefaultShardCount
	}
	return min(shardsPerWorker*len(distinct), DefaultShardCount)
}

// requestIdle is the idle limit of every request the dispatcher sends,
// counted from the moment the request is sent: a seed, submit or cancel
// answer must arrive within it, and an event stream may not stay silent
// longer (serve pings quiet streams every 15s). A worker that accepts a
// connection and never answers fails the request instead of stalling
// the sweep. A var so tests can shorten it.
var requestIdle = 60 * time.Second

// errSilent fails an event stream that outlived requestIdle without a
// line.
var errSilent = errors.New("event stream silent past the idle limit")

// joinGrace bounds how long a run with a Source waits for a worker to
// join while shards are pending and none are live. A var so tests can
// shorten it.
var joinGrace = 30 * time.Second

func (d *Sharded) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return &http.Client{}
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
	Options  struct {
		VCLimit int    `json:"vc_limit"`
		Policy  string `json:"policy"`
		NoCache bool   `json:"no_cache,omitempty"`
	} `json:"options"`
}

// wireStatus is the slice of serve's job-status snapshot that a terminal
// `state` event carries.
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
	// dead marks the worker unusable: a request failing twice, or a
	// corrupt answer, retires it; the shard requeues to the survivors.
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
	r, err := newSweepRun(grid, opts)
	if err != nil {
		return nil, err
	}
	shards := d.shardCount(opts)
	shardJobs := make([][]int, shards)
	for i, j := range r.jobs {
		s := ShardOf(j, shards)
		shardJobs[s] = append(shardJobs[s], i)
	}

	// Coordinator-side cache pre-pass, at shard granularity: a shard
	// every cell of which is cached completes up front and is never
	// dispatched. Shards with even one cold cell dispatch whole, because
	// a worker answers with all its cells — but their warm cells are
	// collected and seeded into the assigned worker's cache ahead of the
	// submit, so a dispatched partially-warm shard recomputes only its
	// cold cells. Every cell is probed (not stop-at-first-miss): the
	// misses are the price of knowing which entries to ship. A rejected
	// hit re-runs remotely with the rest of its shard.
	var (
		pending []int
		warm    map[int][]fabric.CacheEntry
	)
	for s, cells := range shardJobs {
		if len(cells) == 0 {
			continue
		}
		var entries []fabric.CacheEntry
		for _, i := range cells {
			if data, ok := r.lookup(i); ok {
				entries = append(entries, fabric.CacheEntry{Key: r.keys[i], Value: data})
			}
		}
		if len(entries) == len(cells) {
			r.finish(cells, true)
			continue
		}
		pending = append(pending, s)
		if len(entries) > 0 {
			if warm == nil {
				warm = make(map[int][]fabric.CacheEntry)
			}
			warm[s] = entries
		}
	}
	if len(pending) == 0 {
		// Served from the cache whole: nothing to dispatch, so no
		// goroutine is started and no request sent.
		return r.report(false), nil
	}
	if len(d.Workers) == 0 && d.Source != nil && len(d.Source.WorkerURLs()) == 0 {
		// Fail fast rather than idle a full grace when the fleet is empty
		// at start.
		return nil, fmt.Errorf("%w: %d shard(s) to run and no live workers registered", nocerr.ErrWorker, len(pending))
	}

	// Every shard sends the same body; the shard index rides in the URL.
	req := &shardRequest{Grid: r.grid, Simulate: opts.Simulate, Sim: opts.Sim, Certify: opts.Certify}
	req.Options.VCLimit = opts.VCLimit
	req.Options.Policy = policyWire(opts.Policy)
	req.Options.NoCache = opts.NoCache
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	client := d.client()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// All scheduling state lives in this goroutine. The fleet is the
	// admitted worker URLs, by index; workers can be admitted mid-run, so
	// it grows. A worker is free or runs one shard attempt, each on a
	// goroutine of its own that reports on done.
	var (
		done    = make(chan outcome)
		fleet   []string
		known   = make(map[string]bool)
		free    []int
		updates <-chan struct{}
	)
	admit := func(urls []string) {
		for _, u := range urls {
			if u != "" && !known[u] {
				known[u] = true
				free = append(free, len(fleet))
				fleet = append(fleet, u)
			}
		}
	}
	admit(d.Workers)
	if d.Source != nil {
		admit(d.Source.WorkerURLs())
		updates = d.Source.Updates()
	}

	var (
		attempts    = make([]int, shards)
		inflight    int
		fatal       error
		interrupted bool
		// canceled marks a report one of whose shards came back canceled.
		canceled bool
		// grace is the join-grace deadline of an empty fleet: armed when
		// nothing is in flight and pending shards wait for a worker,
		// disarmed when one is admitted, so membership updates that admit
		// no one cannot extend it. graceC is nil while it is disarmed.
		grace  *time.Timer
		graceC <-chan time.Time
	)
	defer func() {
		if grace != nil {
			grace.Stop()
		}
	}()
	ctxDone := ctx.Done()

	// The loop ends only with nothing in flight, so every attempt's
	// goroutine has reported and none outlives the run.
	for {
		// Hand pending shards to free workers while the run is healthy.
		for len(pending) > 0 && len(free) > 0 && fatal == nil && !interrupted {
			w := free[len(free)-1]
			free = free[:len(free)-1]
			shard := pending[0]
			pending = pending[1:]
			if d.OnAssign != nil {
				d.OnAssign(shard, shards, fleet[w])
			}
			s := shardCall{client: client, worker: strings.TrimSuffix(fleet[w], "/"), shard: shard, shards: shards}
			for _, i := range shardJobs[shard] {
				s.cells = append(s.cells, r.jobs[i])
			}
			seed := warm[shard]
			go func() {
				rep, dead, err := d.runShard(cctx, s, body, seed)
				done <- outcome{shard: shard, worker: w, rep: rep, err: err, dead: dead}
			}()
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
			if grace == nil {
				grace = time.NewTimer(joinGrace)
				graceC = grace.C
			}
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
					if o.rep.Canceled {
						interrupted, canceled = true, true
					}
					placeShard(r.results, shardJobs[o.shard], o.rep.Results)
					r.finish(shardJobs[o.shard], false)
				}
			case cctx.Err() != nil:
				// Failure raced the cancellation: let the drain finish.
				interrupted = true
			default:
				attempts[o.shard]++
				if d.OnRetry != nil {
					d.OnRetry(o.shard, fleet[o.worker], o.err)
				}
				if attempts[o.shard] >= shardAttempts {
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
				// admitted, but stop selecting on the dead channel. With
				// none left, no join can ever arrive, so the run fails
				// like a source-less empty fleet.
				updates = nil
				continue
			}
			// Mid-run membership change: admit workers never seen before;
			// the assignment loop hands them pending shards immediately.
			admit(d.Source.WorkerURLs())
			if grace != nil && len(free) > 0 {
				grace.Stop()
				grace, graceC = nil, nil
			}
		case <-graceC:
			fatal = fmt.Errorf("%w: %d shard(s) unassigned and no worker joined within %v", nocerr.ErrWorker, len(pending), joinGrace)
		case <-ctxDone:
			// Stop assigning; in-flight shards drain cooperatively
			// through runShard's cancellation path. Nil the channel so a
			// closed Done cannot spin this loop.
			interrupted = true
			ctxDone = nil
		}
	}
	if fatal != nil {
		return nil, fatal
	}
	return r.report(canceled || (interrupted && ctx.Err() != nil)), nil
}

// shardCall is one shard attempt on one worker: the client every request
// goes through, the worker's base URL, the shard and the run's shard
// count, and the cells the shard must answer with, in grid order.
type shardCall struct {
	client *http.Client
	worker string
	shard  int
	shards int
	cells  []Job
}

func (s shardCall) fail(what string, err error) error {
	return fmt.Errorf("worker %s: %s shard %d/%d: %w", s.worker, what, s.shard, s.shards, err)
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

// runShard submits one shard to a worker and follows the job's SSE
// event stream to its terminal `state` event, which carries the job's
// full status snapshot. A 429 submit answer is backpressure, not failure
// — the worker's Retry-After is honored and the submit retried without
// retiring anyone. Any other failed request gets one second chance per
// phase: one resubmission (shared with the cache seed hand-off, so a
// worker that never answers costs at most two idle limits), and one
// reopened stream. A second failure — or a report that is not exactly
// the shard's cells — retires the worker (dead=true); the coordinator
// requeues the shard elsewhere. On cancellation the worker-side job is
// canceled and its partial report drained.
func (d *Sharded) runShard(ctx context.Context, s shardCall, body []byte, seed []fabric.CacheEntry) (*Report, bool, error) {
	// Warm hand-off: ship the coordinator's cached cells for this shard
	// before submitting, so the worker's own cache pre-pass answers them
	// without computing. Best-effort — a worker without a cache (409)
	// just computes those cells cold — but a seed POST that got no answer
	// at all spends the submit's second chance.
	retried := false
	if len(seed) > 0 {
		sctx, cancel := context.WithTimeout(ctx, requestIdle)
		var unanswered *url.Error
		retried = errors.As(fabric.SeedEntries(sctx, s.worker, d.AuthToken, s.client, seed), &unanswered)
		cancel()
	}
	id, err := d.submit(ctx, s, body, retried)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, fmt.Errorf("%w: %w", nocerr.ErrCanceled, ctx.Err())
		}
		return nil, true, s.fail("submit", err)
	}
	st, err := d.follow(ctx, s, id)
	if err != nil {
		if ctx.Err() != nil {
			return d.drain(s, id)
		}
		return nil, true, s.fail("stream", err)
	}
	switch st.State {
	case "done":
		rep, err := shardReport(st.Result, s.cells)
		if err != nil {
			return nil, true, s.fail("result of", err)
		}
		return rep, false, nil
	case "failed":
		return nil, false, s.fail("run", errors.New(st.Error))
	default: // canceled
		// Canceled server-side (shutdown, operator): whatever partial
		// result exists still merges; missing cells surface as
		// canceled slots.
		return canceledReport(st, s.cells), false, nil
	}
}

// submit POSTs the shard's sweep request and returns the accepted job
// ID, absorbing backpressure and transient hiccups: a 429 answer waits
// out the worker's Retry-After and resubmits (the worker is healthy,
// just full — up to maxBackpressure rounds), while any other failure
// gets one immediate retry unless retried says it was already spent.
func (d *Sharded) submit(ctx context.Context, s shardCall, body []byte, retried bool) (string, error) {
	backpressured := 0
	for {
		id, err := d.submitOnce(ctx, s, body)
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
			t := time.NewTimer(full.after)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return "", err
			}
		case !retried:
			retried = true
		default:
			return "", err
		}
	}
}

// submitOnce sends one submit, bounded by the idle limit.
func (d *Sharded) submitOnce(ctx context.Context, s shardCall, body []byte) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, requestIdle)
	defer cancel()
	target := fmt.Sprintf("%s/v1/sweep?shard=%d/%d", s.worker, s.shard, s.shards)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	fabric.SetAuth(req, d.AuthToken)
	resp, err := s.client.Do(req)
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

// follow reads the job's event stream to its terminal state, reopening
// it once if it fails or ends early: serve replays the job's whole event
// buffer to every subscriber, so the reopened stream — or one opened
// after the job finished — still ends in the terminal state.
func (d *Sharded) follow(ctx context.Context, s shardCall, id string) (*wireStatus, error) {
	st, err := d.stream(ctx, s, id)
	if err != nil && ctx.Err() == nil {
		st, err = d.stream(ctx, s, id)
	}
	return st, err
}

// stream subscribes once to GET /v1/jobs/{id}/events and blocks until
// the terminal `state` event arrives, returning its status snapshot. The
// idle limit runs from the moment the request is sent and restarts with
// every line the worker sends.
func (d *Sharded) stream(ctx context.Context, s shardCall, id string) (st *wireStatus, err error) {
	ctx, cancel := context.WithCancelCause(ctx)
	dog := time.AfterFunc(requestIdle, func() { cancel(errSilent) })
	defer func() {
		dog.Stop()
		if err != nil && errors.Is(context.Cause(ctx), errSilent) {
			err = errSilent
		}
		cancel(nil)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.worker+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	fabric.SetAuth(req, d.AuthToken)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/event-stream") {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("status %d, %q: %s", resp.StatusCode, ct, truncateBody(data))
	}

	var event string
	var data bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	// Terminal state events embed the full shard report; size the line
	// budget like the job API's own body budget. The buffer starts at
	// bufio's default and grows only as far as the longest line.
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		dog.Reset(requestIdle)
		line := sc.Text()
		switch {
		case line == "":
			// Blank line dispatches the accumulated event.
			if event == "state" {
				st = &wireStatus{}
				if err := json.Unmarshal(data.Bytes(), st); err != nil {
					return nil, fmt.Errorf("malformed state event %q", truncateBody(data.Bytes()))
				}
				switch st.State {
				case "done", "failed", "canceled":
					return st, nil
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
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("event stream ended before the job did")
}

// drain is the cancellation path of runShard: cancel the worker-side job
// and follow its stream (off the run context, bounded by drainTimeout)
// to the terminal state, so the partial shard report is not lost. A
// worker that cannot be drained simply contributes nothing — its cells
// merge as canceled slots.
func (d *Sharded) drain(s shardCall, id string) (*Report, bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	cctx, ccancel := context.WithTimeout(ctx, requestIdle)
	defer ccancel()
	creq, err := http.NewRequestWithContext(cctx, http.MethodPost, s.worker+"/v1/jobs/"+id+"/cancel", nil)
	if err != nil {
		return nil, false, nil
	}
	fabric.SetAuth(creq, d.AuthToken)
	if resp, err := s.client.Do(creq); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	st, err := d.follow(ctx, s, id)
	if err != nil {
		return nil, false, nil
	}
	return canceledReport(st, s.cells), false, nil
}

// shardReport decodes a terminal job's result as the shard's report. It
// must hold exactly the shard's cells, in grid order — what the
// worker-side shard filter produces, whether the job finished or was
// canceled part way. Anything else is a corrupt answer.
func shardReport(raw json.RawMessage, cells []Job) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("malformed report %q", truncateBody(raw))
	}
	if len(rep.Results) != len(cells) {
		return nil, fmt.Errorf("report holds %d cell(s), the shard has %d", len(rep.Results), len(cells))
	}
	for k, j := range cells {
		if got := rep.Results[k].Job; got != j {
			return nil, fmt.Errorf("report cell %d is %q, want %q", k, got.Key(), j.Key())
		}
	}
	return &rep, nil
}

// canceledReport keeps whatever valid partial report a job that ended
// off the happy path holds (nil when it holds none), marked canceled
// unless the job finished anyway.
func canceledReport(st *wireStatus, cells []Job) *Report {
	rep, err := shardReport(st.Result, cells)
	if err != nil {
		return nil
	}
	if st.State != "done" {
		rep.Canceled = true
	}
	return rep
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
