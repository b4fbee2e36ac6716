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
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/serve"
	"github.com/nocdr/nocdr/internal/wormhole"
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
			sh := &runner.Sharded{Workers: urls}
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
	n := 0
	sh := &runner.Sharded{Workers: urls, OnAssign: func(_, shards int, _ string) { n = shards }}
	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("sharded simulated report differs from serial:\nserial:\n%s\nsharded:\n%s", want, got)
	}
	if n != runner.DefaultShardCount {
		t.Fatalf("simulated run dispatched %d shards, want %d", n, runner.DefaultShardCount)
	}
}

// TestSweepRefusesDeepBufferUpFront pins where a buffer depth over
// wormhole.MaxBufferDepth, or a cell at wormhole.MaxLanes loads (one
// lane over the bound with the canonical load), is refused: a local run
// fails before any cell runs, and a sharded run before any worker sees a
// request, so the run never reaches a fleet whose 400s would retire
// every worker.
func TestSweepRefusesDeepBufferUpFront(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"torus:4x4:uniform"}, Seeds: []int64{0}}
	loaded := grid
	loaded.Loads = make([]float64, wormhole.MaxLanes)
	for i := range loaded.Loads {
		loaded.Loads[i] = float64(i+1) / float64(len(loaded.Loads))
	}
	for _, c := range []struct {
		name string
		grid runner.Grid
		sim  runner.SimParams
	}{
		{"depth 2^62", grid, runner.SimParams{BufferDepth: 1 << 62}},
		{"MaxLanes loads", loaded, runner.SimParams{}},
	} {
		opts := runner.Options{Simulate: true, Sim: c.sim}
		cells := 0
		local := opts
		local.OnResult = func(int, int, runner.Result) { cells++ }
		if _, err := runner.Run(c.grid, local); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Fatalf("%s: local run: error %v, want ErrInvalidInput", c.name, err)
		}
		if cells != 0 {
			t.Fatalf("%s: local run completed %d cells before refusing", c.name, cells)
		}
		var requests atomic.Int64
		urls := startWorkers(t, 2, func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				h.ServeHTTP(w, r)
			})
		})
		sh := &runner.Sharded{Workers: urls}
		if _, err := sh.RunContext(context.Background(), c.grid, opts); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Fatalf("%s: sharded run: error %v, want ErrInvalidInput", c.name, err)
		}
		if n := requests.Load(); n != 0 {
			t.Fatalf("%s: sharded run sent %d requests before refusing", c.name, n)
		}
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
	sh := &runner.Sharded{Workers: urls}
	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, rep)) {
		t.Fatal("sharded run with forwarded options differs from the identically configured local run")
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
	sh := &runner.Sharded{Workers: urls}
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

// sseState writes a job-event stream holding only the terminal state
// frame, the way serve ends every job's stream.
func sseState(w http.ResponseWriter, state any) {
	data, err := json.Marshal(state)
	if err != nil {
		panic(err)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
}

// TestShardedCorruptWorker pins the malformed-response contract. A
// worker answering garbage — at submit, at the job read, or with a
// finished report that is not exactly its shard's cells — is retired.
// Alone, it fails the run with a typed nocerr error, never a panic or a
// mangled report; next to a healthy peer, its shards requeue there and
// the report is the serial one.
func TestShardedCorruptWorker(t *testing.T) {
	grid := faultGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	jobs := grid.Jobs()
	// The corrupt worker and its peer make a two-worker run of
	// unsimulated cells.
	peerShards := (&runner.Sharded{Workers: []string{"http://a", "http://b"}}).ShardCount(runner.Options{})
	// doneWith answers every submit with a job ID naming the shard, and
	// the job's stream with a finished report built by results.
	doneWith := func(results func(shard int) []runner.Result) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/sweep" {
				shard, _, _ := strings.Cut(r.URL.Query().Get("shard"), "/")
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"id": "shard-%s"}`, shard)
				return
			}
			shard, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/shard-"), "/events"))
			if err != nil {
				http.NotFound(w, r)
				return
			}
			sseState(w, map[string]any{"state": "done", "result": runner.Report{Results: results(shard)}})
		}
	}
	cases := []struct {
		name    string
		handler http.HandlerFunc
		// peer adds a healthy worker next to the corrupt one.
		peer bool
	}{
		{name: "corrupt-submit", handler: func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id": "job-1"`) // truncated JSON
		}},
		{name: "corrupt-poll", handler: func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprint(w, `{"id": "job-1"}`)
				return
			}
			fmt.Fprint(w, `{"state": "done", "result": {"results": [`) // truncated, and no event stream
		}},
		{name: "empty-results", peer: true, handler: doneWith(func(int) []runner.Result {
			return []runner.Result{}
		})},
		{name: "foreign-cell", peer: true, handler: doneWith(func(shard int) []runner.Result {
			for _, j := range jobs {
				if runner.ShardOf(j, peerShards) != shard {
					return []runner.Result{{Job: j}}
				}
			}
			panic("grid has a single shard")
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			workers := []string{ts.URL}
			if tc.peer {
				workers = append(workers, startWorkers(t, 1, nil)...)
			}
			sh := &runner.Sharded{Workers: workers}
			rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
			if tc.peer {
				if err != nil {
					t.Fatalf("a healthy peer could not absorb the corrupt worker: %v", err)
				}
				if got := reportBytes(t, rep); !bytes.Equal(want, got) {
					t.Fatalf("report next to a corrupt worker differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
				}
				return
			}
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
	// A healthy transport whose every sweep job ends "failed".
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id": "job-1"}`)
			return
		}
		sseState(w, map[string]string{"state": "failed", "error": "synthetic"})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()
	var retries atomic.Int32
	sh := &runner.Sharded{
		Workers: []string{ts.URL},
		OnRetry: func(int, string, error) { retries.Add(1) },
	}
	_, err := sh.RunContext(context.Background(), runner.Grid{Benchmarks: []string{"D26_media"}, SwitchCounts: []int{8}}, runner.Options{})
	if !errors.Is(err, nocerr.ErrWorker) || !strings.Contains(err.Error(), "synthetic") {
		t.Fatalf("expected nocerr.ErrWorker naming the job failure after retry exhaustion, got %v", err)
	}
	if n := retries.Load(); n != 3 {
		t.Fatalf("OnRetry fired %d time(s), want one per attempt of the 3-attempt budget", n)
	}
}

// TestShardedNoWorkers rejects a dispatcher without workers.
func TestShardedNoWorkers(t *testing.T) {
	_, err := (&runner.Sharded{}).RunContext(context.Background(), runner.Grid{}, runner.Options{})
	if !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("expected ErrInvalidInput, got %v", err)
	}
}
