package runner_test

// Fabric conformance suite: the sharded dispatcher driven by live worker
// membership (WorkerSource) and the content-addressed result cache. The
// invariant is unchanged from sharded_test.go — whatever the membership
// churn or cache state, the merged report is byte-identical to the
// serial in-process run.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/serve"
)

// fakeSource is a hand-driven WorkerSource: tests mutate the membership
// and signal the dispatcher exactly when they mean to.
type fakeSource struct {
	mu      sync.Mutex
	urls    []string
	updates chan struct{}
	reads   atomic.Int64 // WorkerURLs and Updates calls
}

func newFakeSource(urls ...string) *fakeSource {
	return &fakeSource{urls: urls, updates: make(chan struct{}, 1)}
}

func (s *fakeSource) WorkerURLs() []string {
	s.reads.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.urls...)
}

func (s *fakeSource) Updates() <-chan struct{} {
	s.reads.Add(1)
	return s.updates
}

func (s *fakeSource) set(urls ...string) {
	s.mu.Lock()
	s.urls = urls
	s.mu.Unlock()
	select {
	case s.updates <- struct{}{}:
	default:
	}
}

// mapCache is a transparent CellCache for tests that need to inspect or
// surgically evict entries.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapCache() *mapCache { return &mapCache{m: make(map[string][]byte)} }

func (c *mapCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *mapCache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = val
}

func (c *mapCache) delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

func (c *mapCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// countSubmits wraps worker handlers to count /v1/sweep submissions, so
// tests can assert which workers took shards and how many dispatches a
// cache pre-pass avoided.
func countSubmits(counts []int64) func(int, http.Handler) http.Handler {
	var mu sync.Mutex
	return func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweep") {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	}
}

func totalSubmits(counts []int64) int64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}

// TestShardedLateJoinPicksUpUnownedShards starts a sweep against an
// empty fleet: every shard is unowned. Two workers join mid-run through
// the WorkerSource, take all of them, and the merged report must be
// byte-identical to the serial run — a worker's join time cannot leak
// into the results.
func TestShardedLateJoinPicksUpUnownedShards(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 2)
	urls := startWorkers(t, 2, countSubmits(counts))
	src := newFakeSource() // empty at start: the run must wait, not fail
	go func() {
		time.Sleep(50 * time.Millisecond)
		src.set(urls...)
	}()
	sh := &runner.Sharded{
		Source:    src,
		JoinGrace: 30 * time.Second,
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("late-join report differs from serial:\nserial:\n%s\njoined:\n%s", want, got)
	}
	if totalSubmits(counts) == 0 {
		t.Fatal("no shard was ever dispatched to the joined workers")
	}
}

// TestShardedJoinGraceExpires pins the bounded wait: a source that never
// produces a worker must fail with the join-grace error, not hang. The
// grace runs from the moment the fleet empties, so a source that keeps
// signalling membership changes without offering a worker (a
// crash-looping worker re-registering at a retired URL looks like this)
// must not restart it.
func TestShardedJoinGraceExpires(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}
	for _, flapping := range []bool{false, true} {
		src := newFakeSource()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if flapping {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						src.set()
					case <-stop:
						return
					}
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		sh := &runner.Sharded{Source: src, JoinGrace: 60 * time.Millisecond}
		start := time.Now()
		_, err := sh.RunContext(ctx, grid, runner.Options{})
		waited := time.Since(start)
		cancel()
		close(stop)
		wg.Wait()
		if err == nil || !strings.Contains(err.Error(), "no worker joined within") {
			t.Fatalf("flapping=%v: expected join-grace failure, got %v", flapping, err)
		}
		if waited > time.Second {
			t.Fatalf("flapping=%v: a 60ms join grace took %v to expire", flapping, waited)
		}
	}
}

// TestShardedEmptySourceFailsFast pins the zero-grace path: a fleet
// empty at start with JoinGrace unset fails at once, as the Session and
// the CLI see it. Only a fleet that empties mid-run waits out the
// default grace.
func TestShardedEmptySourceFailsFast(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:3"}, Seeds: []int64{0}}
	sh := &runner.Sharded{Source: newFakeSource()}
	_, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err == nil || !strings.Contains(err.Error(), "no live workers registered") {
		t.Fatalf("expected fail-fast on empty fleet, got %v", err)
	}
}

// countingTransport counts the requests a client sends.
type countingTransport struct {
	n    atomic.Int64
	base http.RoundTripper
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}

// TestShardedCacheSecondRunDispatchesNothing is the coordinator-cache
// conformance centerpiece: run a sweep twice against the same cache;
// the second run must answer every shard from the cache — zero HTTP
// requests of any kind, one hit per cell, every slot reported once to
// OnResult — and still serialize byte-identically.
func TestShardedCacheSecondRunDispatchesNothing(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 2)
	urls := startWorkers(t, 2, countSubmits(counts))
	cache := fabric.NewCache(fabric.CacheOptions{})
	opts := runner.Options{CellCache: cache}

	requests := &countingTransport{base: http.DefaultTransport}
	sh := &runner.Sharded{Workers: urls, Client: &http.Client{Transport: requests}}
	rep1, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep1); !bytes.Equal(want, got) {
		t.Fatalf("cold cached run differs from serial:\nserial:\n%s\ncold:\n%s", want, got)
	}
	cold := totalSubmits(counts)
	if cold == 0 || requests.n.Load() == 0 {
		t.Fatal("cold run dispatched nothing")
	}

	jobs := grid.Jobs()
	seen := make([]int, len(jobs))
	opts.OnResult = func(i, total int, res runner.Result) {
		if total != len(jobs) || res.Job != jobs[i] {
			t.Errorf("OnResult(%d, %d) carried %q, want %q of %d", i, total, res.Key(), jobs[i].Key(), len(jobs))
		}
		seen[i]++
	}
	sent, before := requests.n.Load(), cache.Stats()
	rep2, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep2); !bytes.Equal(want, got) {
		t.Fatalf("cache-served run differs from serial:\nserial:\n%s\ncached:\n%s", want, got)
	}
	if warm := totalSubmits(counts) - cold; warm != 0 {
		t.Fatalf("cache-served run dispatched %d shard(s), want 0", warm)
	}
	if n := requests.n.Load() - sent; n != 0 {
		t.Fatalf("cache-served run sent %d HTTP request(s), want 0", n)
	}
	if st := cache.Stats(); st.Hits-before.Hits != uint64(len(jobs)) || st.Misses != before.Misses {
		t.Fatalf("cache stats after warm run: %+v (before %+v), want %d more hits and no miss", st, before, len(jobs))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("OnResult fired %d time(s) for slot %d, want 1", n, i)
		}
	}

	// Served whole from the cache, a run over a live fleet starts no
	// dispatch: it never reads the fleet's membership.
	src := newFakeSource(urls...)
	opts.OnResult = nil
	rep3, err := (&runner.Sharded{Source: src}).RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep3); !bytes.Equal(want, got) {
		t.Fatalf("cache-served live-fleet run differs from serial:\nserial:\n%s\ncached:\n%s", want, got)
	}
	if n := src.reads.Load(); n != 0 {
		t.Fatalf("cache-served run read the fleet membership %d time(s), want 0", n)
	}
}

// TestShardedCachePartialEviction evicts a single cell and reruns: the
// shard holding it must dispatch whole (a worker answers with all of its
// shard's cells, so a partially cached shard cannot be split), the
// others must stay local, and the report must remain byte-identical.
func TestShardedCachePartialEviction(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	counts := make([]int64, 1)
	urls := startWorkers(t, 1, countSubmits(counts))
	cache := newMapCache()
	opts := runner.Options{CellCache: cache}
	sh := &runner.Sharded{Workers: urls}
	if _, err := sh.RunContext(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}
	cold := totalSubmits(counts)
	jobs := grid.Jobs()
	if cache.len() != len(jobs) {
		t.Fatalf("cache holds %d entries after cold run, want %d", cache.len(), len(jobs))
	}
	cache.delete(runner.CellKey(jobs[0], opts, grid.Loads))

	rep, err := sh.RunContext(context.Background(), grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("partially cached run differs from serial:\nserial:\n%s\npartial:\n%s", want, got)
	}
	warm := totalSubmits(counts) - cold
	if warm == 0 {
		t.Fatal("evicted cell's shard was never dispatched")
	}
	if warm >= cold {
		t.Fatalf("partial rerun dispatched %d shard(s), cold run %d — cache served nothing", warm, cold)
	}
	if cache.len() != len(jobs) {
		t.Fatalf("rerun did not repopulate the evicted cell: %d entries, want %d", cache.len(), len(jobs))
	}
}

// TestShardedNoCacheBypassesButRefreshes pins -no-cache semantics for
// the sharded path: a poisoned cache entry must not reach the report,
// and the bypassing run must overwrite it with the honest bytes.
func TestShardedNoCacheBypassesButRefreshes(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0, 1}}
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	urls := startWorkers(t, 1, nil)
	cache := newMapCache()
	opts := runner.Options{CellCache: cache}
	sh := &runner.Sharded{Workers: urls}
	if _, err := sh.RunContext(context.Background(), grid, opts); err != nil {
		t.Fatal(err)
	}

	// Poison every entry; a cache-consulting run would now produce
	// garbage (the pre-pass rejects undecodable entries, so poison with
	// a decodable-but-wrong result: the other job's bytes).
	jobs := grid.Jobs()
	k0 := runner.CellKey(jobs[0], opts, grid.Loads)
	honest, _ := cache.Get(k0)
	poisoned := bytes.Replace(honest, []byte(`"added_vcs"`), []byte(`"added_vcs_x"`), 1)
	cache.Put(k0, poisoned)

	bypass := opts
	bypass.NoCache = true
	rep, err := sh.RunContext(context.Background(), grid, bypass)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("no-cache run differs from serial:\nserial:\n%s\nbypass:\n%s", want, got)
	}
	if refreshed, _ := cache.Get(k0); !bytes.Equal(refreshed, honest) {
		t.Fatalf("no-cache run did not refresh the poisoned entry:\n%s", refreshed)
	}
}

// TestShardedHeartbeatRetirementRequeues is the end-to-end fleet chaos
// test: a real coordinator registry with a fast heartbeat contract, one
// live worker and one that registered and then died silently. The sweep
// starts while the corpse is still listed, its shards requeue onto the
// survivor, the registry retires it once its heartbeat budget lapses,
// and the merged report is byte-identical to serial.
func TestShardedHeartbeatRetirementRequeues(t *testing.T) {
	grid := conformanceGrid()
	serial, err := runner.Run(grid, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	coord := serve.New(serve.Options{
		Workers:           1,
		HeartbeatInterval: 20 * time.Millisecond,
		MissedBudget:      2,
	})
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { cts.Close(); coord.Close() })

	survivor := startWorkers(t, 1, nil)[0]
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // registered URL, nobody home

	register := func(url string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"url": url})
		resp, err := http.Post(cts.URL+"/v1/workers/register", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", url, resp.StatusCode)
		}
	}
	register(deadURL)
	register(survivor)
	// Keep the survivor's heartbeat alive for the whole test; the dead
	// worker never beats and must age out.
	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	if err := fabric.Join(hbCtx, cts.URL, survivor, fabric.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	src, err := fabric.WatchWorkers(context.Background(), cts.URL, "", 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	sh := &runner.Sharded{
		Source:    src,
		JoinGrace: 30 * time.Second,
	}
	rep, err := sh.RunContext(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(want, got) {
		t.Fatalf("report with a dead fleet member differs from serial:\nserial:\n%s\ngot:\n%s", want, got)
	}

	// The registry must have retired the silent worker by now (the sweep
	// took far longer than the 40ms liveness budget); the survivor, still
	// heartbeating, must remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := src.WorkerURLs()
		if len(live) == 1 && live[0] == survivor {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never retired the dead worker: live set %v", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCellKeyDiscriminates pins the cache-key derivation: every semantic
// input must change the key, and scheduling knobs must not.
func TestCellKeyDiscriminates(t *testing.T) {
	grid := runner.Grid{Benchmarks: []string{"mesh:4"}, Seeds: []int64{0}}
	job := grid.Jobs()[0]
	base := runner.CellKey(job, runner.Options{}, nil)

	if k := runner.CellKey(job, runner.Options{}, nil); k != base {
		t.Fatal("CellKey is not deterministic")
	}
	other := job
	other.Seed++
	if k := runner.CellKey(other, runner.Options{}, nil); k == base {
		t.Fatal("seed change did not change the cell key")
	}
	if k := runner.CellKey(job, runner.Options{Simulate: true}, nil); k == base {
		t.Fatal("Simulate did not change the cell key")
	}
	if k := runner.CellKey(job, runner.Options{VCLimit: 3}, nil); k == base {
		t.Fatal("VCLimit did not change the cell key")
	}
	// Scheduling and caching knobs are not semantic inputs.
	if k := runner.CellKey(job, runner.Options{Parallel: 7, NoCache: true}, nil); k != base {
		t.Fatal("scheduling knobs leaked into the cell key")
	}
	// Loads only matter when the simulation stage consumes them.
	if k := runner.CellKey(job, runner.Options{}, []float64{0.5}); k != base {
		t.Fatal("loads changed the key of a non-simulating cell")
	}
	simBase := runner.CellKey(job, runner.Options{Simulate: true}, nil)
	if k := runner.CellKey(job, runner.Options{Simulate: true}, []float64{0.5}); k == simBase {
		t.Fatal("loads did not change the key of a simulating cell")
	}
	// Defaulted and explicit-default simulation parameters are the same
	// computation, so they must share a key.
	explicit := runner.Options{Simulate: true, Sim: runner.SimParams{Cycles: 20000, Load: 1.0, BufferDepth: 2}}
	if k := runner.CellKey(job, explicit, nil); k != simBase {
		t.Fatal("explicit default SimParams changed the cell key")
	}
}
