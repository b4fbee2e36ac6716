package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/serve"
	"github.com/nocdr/nocdr/internal/traffic"
)

// opDef is one op of a workload: the Sweeps it issues, in order, and the
// key its report digest is filed under.
type opDef struct {
	key   string
	grids []nocdr.SweepGrid
	cells int
}

func newOp(key string, grids ...nocdr.SweepGrid) opDef {
	op := opDef{key: key, grids: grids}
	for _, g := range grids {
		op.cells += len(g.Jobs())
	}
	return op
}

// instance is a set-up workload. A run walks ops cyclically from op 0 as a
// closed loop: one client, next op only when the previous one returned.
type instance struct {
	ops []opDef
	// warmup is how many ops set-up runs before timing starts.
	warmup int
	// sweep issues one op; it is the only code timed as op time.
	sweep func(ctx context.Context, op opDef) ([]*nocdr.SweepReport, error)
	// check applies the workload's own invariants to a finished op.
	check func(op opDef, reps []*nocdr.SweepReport) error
	// refs holds digests set-up already knows for op keys (the serial run
	// a sharded op must reproduce byte for byte).
	refs map[string]string
	// remote marks ops whose cells are computed on loopback workers.
	remote bool
	close  func()
}

type workload struct {
	name string
	// setup builds an instance; a non-nil tracer asks for the traced one.
	setup func(ctx context.Context, seed int64, tr *tracer) (*instance, error)
}

var workloads = []workload{
	{"paper_sweep", setupPaper},
	{"removal_scale", setupRemoval},
	{"mesh_verify", setupMesh},
	{"fleet_cold", func(ctx context.Context, seed int64, tr *tracer) (*instance, error) {
		return setupFleet(ctx, seed, tr, false)
	}},
	{"fleet_warm", func(ctx context.Context, seed int64, tr *tracer) (*instance, error) {
		return setupFleet(ctx, seed, tr, true)
	}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// fullGrid spells a grid out completely, so that it is its own normalized
// form and the report echoes it unchanged (the traced replay rebuilds the
// report around it).
func fullGrid(benchmark string, switches int, seeds ...int64) nocdr.SweepGrid {
	return nocdr.SweepGrid{
		Benchmarks:   []string{benchmark},
		SwitchCounts: []int{switches},
		Policies:     []string{"smallest"},
		Seeds:        seeds,
	}
}

// mod is the non-negative remainder, so negative seeds pick valid ops.
func mod(a int64, n int) int {
	return int((a%int64(n) + int64(n)) % int64(n))
}

// sweepAll issues one Sweep per grid, in order.
func sweepAll(ctx context.Context, s *nocdr.Session, grids []nocdr.SweepGrid, opts nocdr.SweepOptions) ([]*nocdr.SweepReport, error) {
	reps := make([]*nocdr.SweepReport, 0, len(grids))
	for _, g := range grids {
		rep, err := s.Sweep(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// localInstance runs ops through an in-process Session, or, traced,
// through the replay of the runner's pipeline.
func localInstance(ops []opDef, parallel int, sopts nocdr.SweepOptions, tr *tracer) *instance {
	s := nocdr.NewSession(nocdr.WithParallel(parallel))
	sweep := func(ctx context.Context, op opDef) ([]*nocdr.SweepReport, error) {
		return sweepAll(ctx, s, op.grids, sopts)
	}
	if tr != nil {
		sweep = func(ctx context.Context, op opDef) ([]*nocdr.SweepReport, error) {
			reps := make([]*nocdr.SweepReport, 0, len(op.grids))
			for _, g := range op.grids {
				rep, err := replaySweep(ctx, tr, g, parallel, sopts)
				if err != nil {
					return nil, err
				}
				reps = append(reps, rep)
			}
			return reps, nil
		}
	}
	return &instance{ops: ops, warmup: 1, sweep: sweep, close: func() {}}
}

// paperSwitches is the switch-count axis of the paper's design loop.
var paperSwitches = []int{8, 11, 14, 17, 20, 25, 30, 35}

// setupPaper: one-cell sweeps over every (paper benchmark, switch count)
// pair that is not skipped for having more switches than cores. The pairs
// are fixed; the seed picks where the cycle starts.
func setupPaper(_ context.Context, seed int64, tr *tracer) (*instance, error) {
	var pairs []opDef
	for _, b := range traffic.BenchmarkNames() {
		g, err := traffic.ByName(b)
		if err != nil {
			return nil, err
		}
		for _, sw := range paperSwitches {
			if sw <= g.NumCores() {
				pairs = append(pairs, newOp(fmt.Sprintf("%s@%d", b, sw), fullGrid(b, sw, 0)))
			}
		}
	}
	off := mod(seed, len(pairs))
	ops := append(append([]opDef(nil), pairs[off:]...), pairs[:off]...)
	inst := localInstance(ops, 1, nocdr.SweepOptions{}, tr)
	inst.warmup = len(ops)
	return inst, nil
}

// removalDesigns is how many random designs one removal_scale run cycles
// through; with fewer, the per-seed mix of easy and hard designs moves
// cells/s by more than the bound.
const removalDesigns = 64

// setupRemoval: rand:128x6 at 48 switches, one design per op, designs
// removalDesigns·k … removalDesigns·k+removalDesigns-1.
func setupRemoval(_ context.Context, seed int64, tr *tracer) (*instance, error) {
	ops := make([]opDef, removalDesigns)
	for i := range ops {
		s := removalDesigns*seed + int64(i)
		ops[i] = newOp(fmt.Sprintf("rand:128x6@48#%d", s), fullGrid("rand:128x6", 48, s))
	}
	return localInstance(ops, 1, nocdr.SweepOptions{}, tr), nil
}

// meshPairs is how many seed pairs one mesh_verify run cycles through.
const meshPairs = 8

// setupMesh: per op, a simulated and certified sweep of the dateline torus
// under DOR (cyclic: the negative control must deadlock) and of the 8x8
// mesh under odd-even routing with two seeded link faults (acyclic: full
// measurement runs), both over the seed pair {b, b+1}.
func setupMesh(_ context.Context, seed int64, tr *tracer) (*instance, error) {
	ops := make([]opDef, meshPairs)
	for i := range ops {
		b := 2*meshPairs*seed + 2*int64(i)
		torus := fullGrid("torus:8x8:uniform", 64, b, b+1)
		mesh := fullGrid("mesh:8x8", 64, b, b+1)
		mesh.Routings = []string{"odd-even"}
		mesh.Faults = 2
		ops[i] = newOp(fmt.Sprintf("seeds=%d,%d", b, b+1), torus, mesh)
	}
	inst := localInstance(ops, 2, nocdr.SweepOptions{Simulate: true, Certify: true}, tr)
	inst.check = checkVerified
	return inst, nil
}

// checkVerified holds every mesh_verify cell to the three-leg contract.
func checkVerified(_ opDef, reps []*nocdr.SweepReport) error {
	for _, rep := range reps {
		for _, r := range rep.Results {
			id := r.Job.Key()
			switch {
			case r.Sim == nil || r.Certify == nil:
				return fmt.Errorf("%s: missing simulation or certificate", id)
			case r.Sim.PostDeadlock:
				return fmt.Errorf("%s: deadlocked after removal", id)
			case !r.Certify.Agree:
				return fmt.Errorf("%s: certificate disagrees: %s", id, r.Certify.Mismatch)
			case strings.HasPrefix(r.Benchmark, "torus:") && !(r.Sim.PreRan && r.Sim.PreDeadlock):
				return fmt.Errorf("%s: negative control did not deadlock", id)
			case strings.HasPrefix(r.Benchmark, "mesh:") && !r.InitialAcyclic:
				return fmt.Errorf("%s: odd-even design is cyclic", id)
			}
		}
	}
	return nil
}

// The fleet grid: small transpose meshes and tori under three adaptive
// routings with one seeded fault, four seeds, no simulation — 36 cells
// whose compute is tiny next to dispatch.
var (
	fleetBenchmarks = []string{"mesh:4x4:transpose", "torus:4x4:transpose", "mesh:6x6:transpose"}
	fleetRoutings   = []string{"west-first", "odd-even", "min-adaptive"}
)

// fleetGrids is how many seed sets of the fleet grid one run cycles
// through: how many of the 32 shards a grid fills depends on its seeds, so
// with one grid per run the seed alone moves cells/s by a fifth.
const fleetGrids = 8

// Loopback cluster shape: two workers, two jobs each, serial sweeps.
const (
	fleetWorkers       = 2
	fleetJobsPerWorker = 2
)

// setupFleet: fleet grids over seeds 4(8k+j) … 4(8k+j)+3 for j < 8, swept
// through 2 loopback workers with a coordinator result cache. Cold, an op
// sweeps one grid with a fresh cache, so every cell is dispatched. Warm,
// set-up fills one cache with all eight grids and an op re-sweeps all
// eight, which must be served from the cache without dispatching a shard;
// an op that short would otherwise sit astride the garbage collector's
// cycle, and its latency would flip between two modes.
func setupFleet(ctx context.Context, seed int64, tr *tracer, warm bool) (*instance, error) {
	grids := make([]nocdr.SweepGrid, fleetGrids)
	var ops []opDef
	for j := range grids {
		b := 4 * (fleetGrids*seed + int64(j))
		grids[j] = nocdr.SweepGrid{
			Benchmarks:   fleetBenchmarks,
			SwitchCounts: []int{16},
			Policies:     []string{"smallest"},
			Routings:     fleetRoutings,
			Faults:       1,
			Seeds:        []int64{b, b + 1, b + 2, b + 3},
		}
		if !warm {
			ops = append(ops, newOp(fmt.Sprintf("fleet#%d-%d", b, b+3), grids[j]))
		}
	}
	if warm {
		b := 4 * fleetGrids * seed
		ops = []opDef{newOp(fmt.Sprintf("fleet#%d-%d", b, b+4*fleetGrids-1), grids...)}
	}
	// Every op's sharded reports must equal the serial ones byte for byte.
	serial := nocdr.NewSession()
	refs := map[string]string{}
	for _, op := range ops {
		reps, err := sweepAll(ctx, serial, op.grids, nocdr.SweepOptions{})
		if err != nil {
			return nil, fmt.Errorf("serial reference: %w", err)
		}
		d, err := digest(reps)
		if err != nil {
			return nil, err
		}
		refs[op.key] = d
	}

	opts := serve.Options{Workers: fleetJobsPerWorker, SweepParallel: 1}
	var urls []string
	var shutdown func()
	var err error
	if tr == nil {
		urls, shutdown, err = serve.LocalCluster(fleetWorkers, opts)
	} else {
		urls, shutdown, err = tracedCluster(tr, fleetWorkers, opts)
	}
	if err != nil {
		return nil, err
	}

	var shards, retries atomic.Int64
	progress := nocdr.WithProgress(func(e nocdr.Event) {
		switch e.Kind {
		case nocdr.EventShardAssigned:
			shards.Add(1)
		case nocdr.EventWorkerRetry:
			retries.Add(1)
		}
	})
	newCache := func() (*fabric.Cache, nocdr.ResultCache) {
		c := fabric.NewCache(fabric.CacheOptions{})
		if tr == nil {
			return c, c
		}
		return c, &tracedCache{c: c, tr: tr}
	}
	cache, rc := newCache()
	session := nocdr.NewSession(nocdr.WithWorkers(urls...), nocdr.WithResultCache(rc), progress)

	// Per-op deltas, read by check after the op. Only the harness
	// goroutine touches them.
	var opShards, opRetries int64
	var opStats fabric.Stats
	sweep := func(ctx context.Context, op opDef) ([]*nocdr.SweepReport, error) {
		if !warm {
			cache, rc = newCache()
			session = nocdr.NewSession(nocdr.WithWorkers(urls...), nocdr.WithResultCache(rc), progress)
		}
		s0, r0, c0 := shards.Load(), retries.Load(), cache.Stats()
		reps, err := sweepAll(ctx, session, op.grids, nocdr.SweepOptions{})
		s1, r1, c1 := shards.Load(), retries.Load(), cache.Stats()
		opShards, opRetries = s1-s0, r1-r0
		opStats = fabric.Stats{Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses}
		if tr != nil {
			keys := rc.(*tracedCache).takeKeys()
			tr.probe(func() error {
				tr.add("runner.shards", float64(opShards))
				tr.add("runner.retries", float64(opRetries))
				tr.add("fabric.hits", float64(opStats.Hits))
				tr.add("fabric.misses", float64(opStats.Misses))
				return probeKeys(tr, op.grids, keys)
			})
		}
		return reps, err
	}

	if warm {
		if _, err := sweepAll(ctx, session, grids, nocdr.SweepOptions{}); err != nil {
			shutdown()
			return nil, fmt.Errorf("filling the cache: %w", err)
		}
		if tr != nil {
			rc.(*tracedCache).takeKeys()
		}
	}
	check := func(op opDef, _ []*nocdr.SweepReport) error {
		if warm && (opShards != 0 || opStats.Misses != 0 || opStats.Hits != uint64(op.cells)) {
			return fmt.Errorf("warm op dispatched %d shard(s), %d hit(s), %d miss(es) for %d cells",
				opShards, opStats.Hits, opStats.Misses, op.cells)
		}
		return nil
	}
	return &instance{
		ops: ops, warmup: 1, sweep: sweep, check: check,
		refs: refs, remote: true, close: shutdown,
	}, nil
}

// tracedCache is the coordinator's result cache with a span around every
// lookup and store. It remembers the keys looked up during an op, so the
// key probe can confirm it hashes the cells the runner hashed.
type tracedCache struct {
	c  *fabric.Cache
	tr *tracer

	mu   sync.Mutex
	keys []string
}

func (t *tracedCache) Get(key string) ([]byte, bool) {
	id := t.tr.begin("fabric.get")
	v, ok := t.c.Get(key)
	t.tr.end(id)
	t.mu.Lock()
	t.keys = append(t.keys, key)
	t.mu.Unlock()
	return v, ok
}

func (t *tracedCache) Put(key string, val []byte) {
	id := t.tr.begin("fabric.put")
	t.c.Put(key, val)
	t.tr.end(id)
}

func (t *tracedCache) takeKeys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := t.keys
	t.keys = nil
	return keys
}

// probeKeys times runner.CellKey for every cell of the grids, outside op
// time, and fails if a key is not one the coordinator looked up.
func probeKeys(tr *tracer, grids []nocdr.SweepGrid, seen []string) error {
	looked := make(map[string]bool, len(seen))
	for _, k := range seen {
		looked[k] = true
	}
	var jobs []runner.Job
	for _, g := range grids {
		jobs = append(jobs, g.Jobs()...)
	}
	for _, j := range jobs {
		start := time.Now()
		k := runner.CellKey(j, runner.Options{}, nil)
		tr.add("fabric.key_ns", float64(time.Since(start)))
		tr.add("fabric.keys", 1)
		if !looked[k] {
			return fmt.Errorf("cell %s: probed key %s was never looked up", j.Key(), k)
		}
	}
	return nil
}

// tracedCluster is serve.LocalCluster with every worker's handler wrapped
// in the request-span middleware.
func tracedCluster(tr *tracer, n int, opts serve.Options) (urls []string, shutdown func(), err error) {
	var servers []*serve.Server
	var https []*http.Server
	var wg sync.WaitGroup
	shutdown = func() {
		// Cancel jobs first: an event stream ends only when its job does.
		for _, s := range servers {
			s.Cancel()
		}
		for _, hs := range https {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = hs.Shutdown(ctx) // a stream still open after 5 s is cut by Close below
			cancel()
			hs.Close()
		}
		wg.Wait()
		for _, s := range servers {
			s.Close()
		}
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		srv := serve.New(opts)
		hs := &http.Server{Handler: tr.middleware(srv.Handler())}
		servers = append(servers, srv)
		https = append(https, hs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = hs.Serve(l) // returns ErrServerClosed once shut down
		}()
		urls = append(urls, "http://"+l.Addr().String())
	}
	return urls, shutdown, nil
}

// middleware records one span per worker request, named by its role in
// sharded dispatch.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(requestSpan(r))
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

func requestSpan(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sweep":
		return "serve.submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/events"):
		return "serve.stream"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "serve.status"
	}
	return "serve.other"
}
