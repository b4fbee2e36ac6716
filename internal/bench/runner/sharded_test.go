package runner_test

// Conformance and chaos suite of the sharded sweep backend: real serve
// workers behind httptest listeners, driven by the Sharded dispatcher.
// The invariant under test everywhere: whatever the worker count,
// completion order, or failure pattern, the merged report is
// byte-identical to the single-process run — or, under cancellation, a
// valid partial report marked canceled.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/serve"
)

// startWorkers brings up n serve workers, optionally wrapping each
// handler, and tears them down with the test.
func startWorkers(t testing.TB, n int, wrap func(i int, h http.Handler) http.Handler) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Options{Workers: 2, SweepParallel: 2})
		var h http.Handler = srv.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			srv.Cancel()
			ts.Close()
			srv.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// jitter delays every request by a pseudo-random few milliseconds so
// shard completion order is shuffled across runs and workers.
func jitter(seed int64) func(int, http.Handler) http.Handler {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			d := time.Duration(rng.Intn(4)) * time.Millisecond
			mu.Unlock()
			time.Sleep(d)
			h.ServeHTTP(w, r)
		})
	}
}

// conformanceGrid is the scaled-down deep-sweep surface: mesh and torus
// presets, three routing functions, seeded link faults, two seeds.
func conformanceGrid() runner.Grid {
	return runner.Grid{
		Benchmarks: []string{"mesh:4", "torus:4x4:transpose", "mesh:3x3:hotspot"},
		Routings:   []string{"west-first", "odd-even", "min-adaptive"},
		Faults:     1,
		Seeds:      []int64{0, 1},
	}
}

func reportBytes(t testing.TB, rep *runner.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedMatchesSerial is the conformance suite's centerpiece: the
// deep-sweep-shaped grid, sharded over 1..4 real HTTP workers with
// jittered completion order, must serialize byte-identically to the
// serial in-process run.
func TestShardedMatchesSerial(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	for _, r := range serial.Results {
		if r.Error != "" {
			t.Fatalf("serial cell %q failed: %s", r.Job.Key(), r.Error)
		}
	}
	for workers := 1; workers <= 4; workers++ {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			urls := startWorkers(t, workers, jitter(int64(workers)))
			sh := &runner.Sharded{Workers: urls, PollInterval: 5 * time.Millisecond}
			rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(want, got) {
				t.Fatalf("sharded report over %d workers differs from serial:\nserial:\n%s\nsharded:\n%s",
					workers, want, got)
			}
		})
	}
}

// TestShardedSimulatedMatchesSerial extends conformance to the
// flit-level verification stage: Simulate plus SimParams must forward to
// the workers intact, down to the derived per-cell simulation seeds.
func TestShardedSimulatedMatchesSerial(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"torus:4x4:uniform"}, Seeds: []int64{0, 1}}
	opts := runner.Options{Simulate: true, Sim: runner.SimParams{Cycles: 4000, Seed: 5}}
	serial, err := runner.Run(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	if !bytes.Contains(want, []byte(`"pre_deadlock": true`)) {
		t.Fatal("serial negative control did not deadlock; the conformance check has no teeth")
	}
	urls := startWorkers(t, 2, nil)
	sh := &runner.Sharded{Workers: urls, PollInterval: 5 * time.Millisecond}
	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("sharded simulated report differs from serial:\nserial:\n%s\nsharded:\n%s", want, got)
	}
}

// TestShardedOptionsForwarded pins that the removal configuration
// reaches the workers: a forward-only sharded run must match the
// identically configured local run, not the default-policy one.
func TestShardedOptionsForwarded(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"torus:4x4:uniform"}, Seeds: []int64{0}}
	opts := runner.Options{Policy: core.ForwardOnly}
	serial, err := runner.Run(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, 2, nil)
	sh := &runner.Sharded{Workers: urls, PollInterval: 5 * time.Millisecond}
	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, rep)) {
		t.Fatal("sharded run with forwarded options differs from the identically configured local run")
	}
}

// TestShardedWorkerDeathRequeues kills one of three workers mid-grid —
// the server stops answering between polls — and requires the surviving
// workers to absorb its shards with the final report still
// byte-identical to serial.
func TestShardedWorkerDeathRequeues(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	// Worker 0 serves its first sweep submission and first status poll,
	// then aborts every further connection.
	var requests atomic.Int32
	wrap := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/jobs/") && requests.Add(1) > 1 {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	}
	urls := startWorkers(t, 3, wrap)
	var retries atomic.Int32
	sh := &runner.Sharded{
		Workers:      urls,
		PollInterval: 5 * time.Millisecond,
		OnRetry:      func(shard int, worker string, err error) { retries.Add(1) },
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if retries.Load() == 0 {
		t.Fatal("worker death produced no requeue; the chaos did not bite")
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("report after worker death differs from serial:\nserial:\n%s\nsharded:\n%s", want, got)
	}
}

// TestShardedSurvivesTransientPollFailure pins that one dropped status
// poll does not retire a worker: with a single worker whose connection
// hiccups exactly once mid-poll, the run must still complete — the job
// keeps running server-side and the re-poll finds it.
func TestShardedSurvivesTransientPollFailure(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8, 14}}
	serial, err := runner.Run(grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dropped atomic.Bool
	wrap := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/jobs/") && dropped.CompareAndSwap(false, true) {
				panic(http.ErrAbortHandler)
			}
			h.ServeHTTP(w, r)
		})
	}
	urls := startWorkers(t, 1, wrap)
	sh := &runner.Sharded{Workers: urls, PollInterval: 2 * time.Millisecond}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatalf("one dropped poll killed the run: %v", err)
	}
	if !dropped.Load() {
		t.Fatal("the chaos never fired")
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, rep)) {
		t.Fatal("report after a transient poll failure differs from serial")
	}
}

// TestShardedCancelMidSweep cancels the run context after the first
// shard lands: the dispatcher must drain and return a valid partial
// report — canceled flag set, completed cells intact, missing cells
// marked canceled with their identity preserved.
func TestShardedCancelMidSweep(t *testing.T) {
	grid := conformanceGrid()
	urls := startWorkers(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	sh := &runner.Sharded{Workers: urls, PollInterval: 5 * time.Millisecond}
	rep, err := sh.RunContext(ctx, grid, runner.Options{
		OnResult: func(i, total int, res runner.Result) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("partial report not marked canceled")
	}
	data := reportBytes(t, rep)
	if !bytes.Contains(data, []byte(`"canceled": true`)) {
		t.Fatal(`partial report JSON missing "canceled": true`)
	}
	var done, canceled int
	for i, r := range rep.Results {
		if r.Benchmark == "" {
			t.Fatalf("slot %d lost its job identity", i)
		}
		if r.Canceled {
			canceled++
		} else {
			done++
		}
	}
	if done == 0 || canceled == 0 {
		t.Fatalf("expected a mix of completed and canceled cells, got done=%d canceled=%d", done, canceled)
	}
}

// TestShardedCorruptWorker pins the malformed-response contract: a
// worker answering garbage (at submit or at poll) is retried, then the
// run fails with a typed nocerr error — never a panic, never a mangled
// report.
func TestShardedCorruptWorker(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8}}
	cases := map[string]http.HandlerFunc{
		"corrupt-submit": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id": "job-1"`) // truncated JSON
		},
		"corrupt-poll": func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprint(w, `{"id": "job-1"}`)
				return
			}
			fmt.Fprint(w, `{"state": "done", "result": {"results": [`) // truncated
		},
	}
	for name, handler := range cases {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(handler)
			defer ts.Close()
			sh := &runner.Sharded{Workers: []string{ts.URL}, PollInterval: time.Millisecond}
			_, err := sh.RunContext(context.Background(), grid, runner.Options{})
			if err == nil {
				t.Fatal("corrupt worker produced no error")
			}
			if !errors.Is(err, nocerr.ErrWorker) {
				t.Fatalf("error not typed nocerr.ErrWorker: %v", err)
			}
		})
	}
}

// TestShardedRetryBudgetExhausted drives a worker that always fails its
// jobs (without dying) into the per-shard retry cap.
func TestShardedRetryBudgetExhausted(t *testing.T) {
	// A healthy transport whose every sweep job reports "failed".
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id": "job-1"}`)
			return
		}
		fmt.Fprint(w, `{"state": "failed", "error": "synthetic"}`)
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	var retries atomic.Int32
	sh := &runner.Sharded{
		Workers:      []string{ts.URL},
		PollInterval: time.Millisecond,
		Retries:      2,
		OnRetry:      func(int, string, error) { retries.Add(1) },
	}
	_, err := sh.RunContext(context.Background(), runner.Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8}}, runner.Options{})
	if !errors.Is(err, nocerr.ErrWorker) {
		t.Fatalf("expected nocerr.ErrWorker after retry exhaustion, got %v", err)
	}
	if retries.Load() == 0 {
		t.Fatal("retry budget consumed without OnRetry firing")
	}
}

// TestShardedNoWorkers rejects a dispatcher without workers.
func TestShardedNoWorkers(t *testing.T) {
	_, err := (&runner.Sharded{}).RunContext(context.Background(), runner.Grid{}, runner.Options{})
	if !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("expected ErrInvalidInput, got %v", err)
	}
}
