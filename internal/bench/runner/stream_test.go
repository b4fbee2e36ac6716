package runner_test

// Fabric phase 2 conformance: streamed dispatch (the job's SSE stream is
// the only completion path), coordinator→worker cache seeding, 429
// backpressure handling, and a TLS fleet end to end. The invariant stays the same
// throughout: byte-identity with the serial run.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/serve"
)

// countRequests wraps worker handlers to count POST /v1/sweep submits
// and to split GET /v1/jobs/{id} status polls from GET
// /v1/jobs/{id}/events stream subscriptions.
func countRequests(submits, polls, streams *atomic.Int64) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/sweep":
				submits.Add(1)
			case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
				if strings.HasSuffix(r.URL.Path, "/events") {
					streams.Add(1)
				} else {
					polls.Add(1)
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// TestShardedStreamZeroStatusPolls is the streamed-dispatch conformance
// check over one, two and four workers: the run cuts the grid into at
// most four shards per worker, submits every non-empty shard once and
// follows it over its SSE event stream alone, so the workers see one
// stream per submit and zero status polls, and the report is the serial
// one byte for byte.
func TestShardedStreamZeroStatusPolls(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			var submits, polls, streams atomic.Int64
			urls := startWorkers(t, w, countRequests(&submits, &polls, &streams))
			n, assigned := 0, map[int]int{}
			sh := &runner.Sharded{Workers: urls, OnAssign: func(shard, shards int, _ string) {
				n = shards
				assigned[shard]++
			}}
			rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(want, got) {
				t.Fatalf("streamed report differs from serial:\nserial:\n%s\nstreamed:\n%s", want, got)
			}
			if p := polls.Load(); p != 0 {
				t.Fatalf("dispatch issued %d status poll(s), want 0 — SSE must carry the terminal state", p)
			}
			if n > 4*w {
				t.Fatalf("%d worker(s) dispatch %d shards, more than four per worker", w, n)
			}
			nonEmpty := map[int]bool{}
			for _, j := range grid.Jobs() {
				nonEmpty[runner.ShardOf(j, n)] = true
			}
			for s, times := range assigned {
				if !nonEmpty[s] || times != 1 {
					t.Fatalf("shard %d of %d assigned %d time(s); want each non-empty shard once", s, n, times)
				}
			}
			if len(assigned) != len(nonEmpty) || submits.Load() != int64(len(nonEmpty)) || streams.Load() != int64(len(nonEmpty)) {
				t.Fatalf("%d shard(s) assigned, %d submit(s), %d stream(s); want one each per non-empty shard: %d",
					len(assigned), submits.Load(), streams.Load(), len(nonEmpty))
			}
		})
	}
}

// TestShardedWarmSeedHandoff pins cache propagation end to end: a warm
// coordinator dispatching a partially-cold shard ships its warm cells to
// the worker first, so a fresh worker computes only the cold cell — and
// the report stays byte-identical.
func TestShardedWarmSeedHandoff(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)
	jobs := grid.Jobs()

	coord := newMapCache()
	opts := runner.Options{CellCache: coord}

	// Cold run against a throwaway worker to fill the coordinator cache.
	coldURLs := startWorkers(t, 1, nil)
	sh := &runner.Sharded{Workers: coldURLs}
	if _, err := sh.RunContext(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}
	if coord.len() != len(jobs) {
		t.Fatalf("coordinator cache holds %d entries after the cold run, want %d", coord.len(), len(jobs))
	}
	// Evict one cell of the fullest shard a one-worker run dispatches,
	// so its shard dispatches with the most warm cells riding along.
	shards := make([][]runner.Job, sh.ShardCount(opts))
	fullest := 0
	for _, j := range jobs {
		s := runner.ShardOf(j, len(shards))
		shards[s] = append(shards[s], j)
		if len(shards[s]) > len(shards[fullest]) {
			fullest = s
		}
	}
	warm := len(shards[fullest]) - 1
	if warm == 0 {
		t.Fatal("no shard holds two cells; the hand-off has nothing to ship")
	}
	evicted := runner.CellKey(shards[fullest][0], opts, grid.Loads)
	coord.delete(evicted)

	// A fresh worker with its own empty result cache: the evicted cell's
	// shard dispatches whole (one cell is cold), but the seed hand-off
	// must answer every other cell of it from the worker's cache. Every
	// other shard is served by the coordinator and never dispatched.
	wcache := fabric.NewCache(fabric.CacheOptions{})
	wsrv := serve.New(serve.Options{Workers: 2, SweepParallel: 2, Cache: wcache})
	wts := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() {
		wsrv.Cancel()
		wts.Close()
		wsrv.Close()
		wcache.Close()
	})

	sh = &runner.Sharded{Workers: []string{wts.URL}}
	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("seeded run differs from serial:\nserial:\n%s\nseeded:\n%s", want, got)
	}
	st := wcache.Stats()
	if st.Misses != 1 {
		t.Fatalf("fresh worker computed %d cell(s) cold, want exactly 1 (the evicted one): %+v", st.Misses, st)
	}
	if st.Hits < uint64(warm) {
		t.Fatalf("seeded worker hit only %d of %d warm cells: %+v", st.Hits, warm, st)
	}
	if coord.len() != len(jobs) {
		t.Fatalf("coordinator cache not repopulated: %d entries, want %d", coord.len(), len(jobs))
	}
	if _, ok := coord.Get(evicted); !ok {
		t.Fatal("the evicted cell never returned to the coordinator cache")
	}
}

// TestShardedBackpressureResubmit pins the 429 contract: a worker
// deflecting submissions with Retry-After is waited out and resubmitted
// to — never retired, never charged against the shard retry budget.
func TestShardedBackpressureResubmit(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	var deflected atomic.Int32
	wrap := func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweep") && deflected.Add(1) <= 2 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"job queue full"}`, http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	urls := startWorkers(t, 1, wrap)
	var retries atomic.Int32
	sh := &runner.Sharded{
		Workers: urls,
		OnRetry: func(int, string, error) { retries.Add(1) },
	}
	start := time.Now()
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatalf("backpressured run failed: %v", err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("backpressured report differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
	}
	if n := deflected.Load(); n < 3 {
		t.Fatalf("worker saw %d submit(s), want the 2 deflections plus the accepted one", n)
	}
	if retries.Load() != 0 {
		t.Fatal("backpressure was charged as a shard retry; a full queue must not consume the budget")
	}
	if elapsed := time.Since(start); elapsed < 2*time.Second {
		t.Fatalf("run finished in %v; two Retry-After: 1 rounds must wait at least 2s", elapsed)
	}
}

// TestShardedOverTLS runs a sharded sweep — submit, SSE stream, merge —
// against a worker listening on TLS with fleet-generated certificates. A
// dispatcher without the CA must fail instead of silently degrading.
func TestShardedOverTLS(t *testing.T) {
	ca, err := fabric.NewCertAuthority("runner-test-ca")
	if err != nil {
		t.Fatal(err)
	}
	cert, key, err := ca.Issue("worker", []string{"127.0.0.1", "localhost"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	caFile := write("ca.pem", ca.CertPEM)
	certFile := write("server.pem", cert)
	keyFile := write("server-key.pem", key)

	scfg, err := fabric.ServerTLS(certFile, keyFile, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Workers: 2, SweepParallel: 2})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.TLS = scfg
	ts.StartTLS()
	t.Cleanup(func() {
		srv.Cancel()
		ts.Close()
		srv.Close()
	})
	if !strings.HasPrefix(ts.URL, "https://") {
		t.Fatalf("worker URL %q is not TLS", ts.URL)
	}

	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0, 1}}
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := fabric.ClientTLS(caFile, "", "")
	if err != nil {
		t.Fatal(err)
	}
	sh := &runner.Sharded{
		Workers: []string{ts.URL},
		Client:  fabric.HTTPClient(ccfg, 0),
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatalf("TLS sweep failed: %v", err)
	}
	if !bytes.Equal(reportBytes(t, serial), reportBytes(t, rep)) {
		t.Fatal("TLS sharded report differs from serial")
	}

	// No CA pin, no fleet: the default client must refuse the listener.
	bare := &runner.Sharded{Workers: []string{ts.URL}}
	if _, err := bare.RunContext(context.Background(), grid, runner.Options{}); err == nil {
		t.Fatal("dispatcher without the CA reached a TLS worker")
	} else if !strings.Contains(err.Error(), nocerr.ErrWorker.Error()) {
		t.Fatalf("TLS rejection surfaced as %v, want a worker error", err)
	}
}

// TestShardedGoroutineStable runs streamed sweeps back to back and
// requires the goroutine count to return to baseline: no stream, idle
// timer or worker goroutine may outlive its run.
func TestShardedGoroutineStable(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0, 1}}
	urls := startWorkers(t, 1, nil)
	sh := &runner.Sharded{Workers: urls}
	if _, err := sh.RunContext(context.Background(), grid, runner.Options{}); err != nil {
		t.Fatal(err) // warm-up: lazy pools and http transports settle
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := sh.RunContext(context.Background(), grid, runner.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across streamed runs and never settled",
				before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
