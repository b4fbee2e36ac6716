package runner_test

// Deterministic fault schedule of the sharded dispatcher. A test-only
// http.RoundTripper sits in Sharded.Client in front of real serve
// workers and fails chosen requests by occurrence count — no sleeps, no
// clocks; a worker that never answers is released only by the
// dispatcher's own idle limit. Each row faults one step of the dispatch
// protocol in one way — on the step's first request, on each job's
// first stream, on every request to one worker, or on every request —
// and pins the outcome: when the retry budget absorbs the fault the
// report is the serial one byte for byte, when every worker is faulty
// the run fails with nocerr.ErrWorker, and a canceled run whose cancel
// requests fail still drains every in-flight shard in full. Every row
// also pins whether a worker was retired, and that the dispatcher sends
// zero GET /v1/jobs/{id} status polls.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/nocerr"
)

// faultGrid is 16 small cells spread over several shards.
func faultGrid() runner.Grid {
	return runner.Grid{
		Benchmarks: []string{"mesh:4", "mesh:3x3:hotspot"},
		Routings:   []string{"west-first", "odd-even"},
		Seeds:      []int64{0, 1, 2, 3},
	}
}

// The dispatch protocol's steps, named by the request that carries them.
const (
	stepSeed   = "seed"   // POST /v1/cache/seed
	stepSubmit = "submit" // POST /v1/sweep
	stepStream = "stream" // GET /v1/jobs/{id}/events
	stepCancel = "cancel" // POST /v1/jobs/{id}/cancel
	stepStatus = "status" // GET /v1/jobs/{id}, never sent
)

func stepOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/cache/seed":
		return stepSeed
	case r.Method == http.MethodPost && p == "/v1/sweep":
		return stepSubmit
	case r.Method == http.MethodGet && strings.HasSuffix(p, "/events"):
		return stepStream
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/cancel"):
		return stepCancel
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return stepStatus
	}
	return "other"
}

type fault int

const (
	// transportError fails the request before it reaches the worker.
	transportError fault = iota
	// cutAfterFirstEvent drops the event stream after its first event.
	cutAfterFirstEvent
	// neverAnswers holds the request until the dispatcher gives up on it.
	neverAnswers
)

func (f fault) String() string {
	return [...]string{"transport-error", "cut-after-first-event", "never-answers"}[f]
}

// occurrence places one request of a step: the worker it went to, its
// count among the step's requests, and its count among the requests to
// the same worker path (for streams and cancels: the same job).
type occurrence struct{ worker, nth, nthForJob int }

// faultTransport forwards to real workers, faulting the requests of step
// that when selects.
type faultTransport struct {
	base    http.RoundTripper
	workers []string // worker hosts, by index
	step    string
	fault   fault
	when    func(occurrence) bool
	// onStream, when non-nil, sees the count of every stream request
	// before it is forwarded.
	onStream func(nth int)

	mu      sync.Mutex
	counts  map[string]int
	byPath  map[string]int
	faulted int
}

func (f *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	step := stepOf(r)
	f.mu.Lock()
	f.counts[step]++
	f.byPath[r.URL.Host+r.URL.Path]++
	o := occurrence{worker: -1, nth: f.counts[step], nthForJob: f.byPath[r.URL.Host+r.URL.Path]}
	for i, h := range f.workers {
		if h == r.URL.Host {
			o.worker = i
		}
	}
	hit := step == f.step && f.when(o)
	if hit {
		f.faulted++
	}
	f.mu.Unlock()
	if step == stepStream && f.onStream != nil {
		f.onStream(o.nth)
	}
	if !hit {
		return f.base.RoundTrip(r)
	}
	switch f.fault {
	case transportError:
		closeBody(r)
		return nil, errors.New("injected transport error")
	case neverAnswers:
		closeBody(r)
		<-r.Context().Done()
		return nil, r.Context().Err()
	default:
		resp, err := f.base.RoundTrip(r)
		if err != nil {
			return nil, err
		}
		resp.Body = cutAfterFirst(resp.Body)
		return resp, nil
	}
}

// tally returns how many status polls the dispatcher sent and how many
// of its requests were faulted.
func (f *faultTransport) tally() (polls, faulted int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[stepStatus], f.faulted
}

func closeBody(r *http.Request) {
	if r.Body != nil {
		r.Body.Close()
	}
}

// cutAfterFirst passes an event stream through to the end of its first
// event, then fails the way a dropped connection does.
func cutAfterFirst(body io.ReadCloser) io.ReadCloser {
	br := bufio.NewReader(body)
	var first bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		first.WriteString(line)
		if err != nil || line == "\n" {
			break
		}
	}
	return struct {
		io.Reader
		io.Closer
	}{io.MultiReader(&first, iotest.ErrReader(io.ErrUnexpectedEOF)), body}
}

// The rows' scopes: which occurrences of the step fault.
var (
	once       = func(o occurrence) bool { return o.nth == 1 }
	firstOfJob = func(o occurrence) bool { return o.nthForJob == 1 }
	onWorker0  = func(o occurrence) bool { return o.worker == 0 }
	always     = func(occurrence) bool { return true }
)

type faultOutcome int

const (
	// wantSerial: the retry budget absorbs the fault.
	wantSerial faultOutcome = iota
	// wantWorkerErr: every worker is faulty.
	wantWorkerErr
	// wantDrained: the caller cancels while every shard is in flight, and
	// the cancel never reaches the workers, so the drain collects every
	// shard in full: the serial cells, with the report marked canceled
	// or not depending on whether the dispatcher saw the cancellation
	// before the last shard landed.
	wantDrained
)

type faultRow struct {
	step  string
	fault fault
	scope string
	when  func(occurrence) bool
	want  faultOutcome
}

// requeues says whether a row's fault must retire a worker and requeue
// its shard: a single fault is absorbed by the worker's second chance,
// a faulty worker is retired, and a failed seed hand-off retires no one.
func (r faultRow) requeues() bool {
	return r.scope == "worker-0" && r.step != stepSeed
}

func faultRows() []faultRow {
	var rows []faultRow
	for _, step := range []string{stepSeed, stepSubmit, stepStream} {
		faults := []fault{transportError, neverAnswers}
		if step == stepStream {
			faults = append(faults, cutAfterFirstEvent)
		}
		// The seed hand-off is best-effort: even a seed step that always
		// fails leaves the workers to compute the cells cold.
		every := wantWorkerErr
		if step == stepSeed {
			every = wantSerial
		}
		for _, f := range faults {
			rows = append(rows,
				faultRow{step, f, "once", once, wantSerial},
				faultRow{step, f, "worker-0", onWorker0, wantSerial},
				faultRow{step, f, "every-worker", always, every})
		}
	}
	rows = append(rows,
		faultRow{stepStream, cutAfterFirstEvent, "first-of-each-job", firstOfJob, wantSerial},
		faultRow{stepCancel, transportError, "every-worker", always, wantDrained},
		faultRow{stepCancel, neverAnswers, "every-worker", always, wantDrained})
	return rows
}

// TestShardedFaultSchedule runs every row of the fault schedule against
// two real workers.
func TestShardedFaultSchedule(t *testing.T) {
	// A worker that never answers costs the dispatcher at most two idle
	// limits; keep them short. Healthy requests here answer within
	// milliseconds.
	defer runner.SetRequestIdle(250 * time.Millisecond)()

	grid := faultGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	jobs := grid.Jobs()
	byShard := make(map[int][]runner.Job)
	var order []int
	for _, j := range jobs {
		s := runner.ShardOf(j, runner.DefaultShardCount)
		if byShard[s] == nil {
			order = append(order, s)
		}
		byShard[s] = append(byShard[s], j)
	}

	for _, row := range faultRows() {
		t.Run(row.step+"/"+row.fault.String()+"/"+row.scope, func(t *testing.T) {
			urls := startWorkers(t, 2, nil)
			ft := &faultTransport{
				base: http.DefaultTransport, step: row.step, fault: row.fault, when: row.when,
				counts: map[string]int{}, byPath: map[string]int{},
			}
			for _, u := range urls {
				ft.workers = append(ft.workers, strings.TrimPrefix(u, "http://"))
			}
			// Guards against a regression that hangs; a passing row takes
			// well under a second.
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()

			opts := runner.Options{}
			switch row.step {
			case stepSeed:
				// A warm coordinator cache short of one cell per shard:
				// every shard with a warm cell ships it ahead of the
				// submit.
				opts.CellCache = warmCache(t, grid, jobs, byShard, order)
			case stepCancel:
				// Only two shards left cold, one per worker, and the
				// caller cancels once both are in flight.
				opts.CellCache = warmCache(t, grid, jobs, byShard, order[:2])
				ft.onStream = func(nth int) {
					if nth == 2 {
						cancel()
					}
				}
			}
			var retries atomic.Int32
			sh := &runner.Sharded{
				Workers: urls,
				Client:  &http.Client{Transport: ft},
				OnRetry: func(int, string, error) { retries.Add(1) },
			}
			rep, err := sh.RunContext(ctx, grid, opts)

			polls, faulted := ft.tally()
			if polls != 0 {
				t.Fatalf("dispatcher sent %d status poll(s), want 0", polls)
			}
			if faulted == 0 {
				t.Fatal("the fault never fired")
			}
			if row.want != wantWorkerErr && (retries.Load() > 0) != row.requeues() {
				t.Fatalf("%d shard requeue(s); want requeues: %v", retries.Load(), row.requeues())
			}
			switch row.want {
			case wantWorkerErr:
				if !errors.Is(err, nocerr.ErrWorker) {
					t.Fatalf("every worker faulty: want an error wrapping nocerr.ErrWorker, got %v", err)
				}
				return
			case wantDrained:
				if err != nil {
					t.Fatal(err)
				}
				rep.Canceled = false
			default:
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := reportBytes(t, rep); !bytes.Equal(want, got) {
				t.Fatalf("report differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// warmCache holds every cell of the grid but the first cell of each of
// the given shards, so exactly those shards dispatch.
func warmCache(t *testing.T, grid runner.Grid, jobs []runner.Job, byShard map[int][]runner.Job, cold []int) *mapCache {
	t.Helper()
	cache := newMapCache()
	if _, err := runner.Run(grid, runner.Options{Parallel: 1, CellCache: cache}); err != nil {
		t.Fatal(err)
	}
	for _, s := range cold {
		cache.delete(runner.CellKey(byShard[s][0], runner.Options{}, grid.Loads))
	}
	if cache.len() != len(jobs)-len(cold) {
		t.Fatalf("warm cache holds %d cells, want %d", cache.len(), len(jobs)-len(cold))
	}
	return cache
}
