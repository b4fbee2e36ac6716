package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/fabric"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/serve"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// runSweep implements the `nocexp sweep` subcommand: parse the grid and
// engine flags, fan the jobs out, print the table, optionally write the
// deterministic JSON report.
//
// ctx carries the interrupt wiring (signal.NotifyContext in main): on
// Ctrl-C the worker pool drains, in-flight cells return through their
// cancellation checks, and the table and JSON report are still written —
// valid but partial, marked "canceled": true — before runSweep returns a
// non-nil error.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmarks := fs.String("benchmarks", "all",
		"comma-separated benchmark specs: paper names, rand:<cores>x<fanout>, or \"all\" for the six paper benchmarks")
	switches := fs.String("switches", "", "comma-separated switch counts (default "+intsCSV(runner.DefaultSwitchCounts)+")")
	policies := fs.String("policies", "smallest", "comma-separated cycle-selection policies: smallest, first")
	seeds := fs.String("seeds", "0", "comma-separated seeds for rand benchmark specs")
	loads := fs.String("loads", "",
		"comma-separated measurement load factors in (0,1]: with -simulate, additionally measure each cell's post-removal design at every load (one variant batch per design) and report per-design latency/throughput curves with a saturation estimate")
	routing := fs.String("routing", "",
		"comma-separated routing functions for mesh:/torus: preset cells: "+strings.Join(route.TurnModelNames(), ", ")+" (default dor; synthesized benchmarks always use shortest paths)")
	faults := fs.Int("faults", 0,
		"mask this many seeded link faults per preset cell (network stays connected; routes regenerate around them — pair with an adaptive -routing, DOR cannot route around faults)")
	maxPaths := fs.Int("paths", 0, "max candidate paths per flow for adaptive routings (0 = library default)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "in-process worker count (1 = serial); with -shard-local it is divided among the spawned workers; with -workers each remote worker's own -sweep-parallel governs instead")
	workers := fs.String("workers", "",
		"comma-separated base URLs of running `nocdr serve` workers: shard the grid across them over HTTP and merge a report byte-identical to a local run")
	shardLocal := fs.Int("shard-local", 0,
		"spawn this many in-process serve workers on loopback and shard the sweep across them (single-machine parallelism through the same distributed path)")
	coordinator := fs.String("coordinator", "",
		"base URL of a `nocdr serve` coordinator: shard the grid across its live worker registry, tracking joins and departures mid-sweep")
	token := fs.String("token", os.Getenv(fabric.TokenEnv),
		"fleet bearer token presented to the coordinator and its workers (env "+fabric.TokenEnv+")")
	tlsCA := fs.String("tls-ca", "",
		"PEM CA bundle pinning the fleet's TLS certificates (required for https coordinators with self-signed fleet certs)")
	tlsCert := fs.String("tls-cert", "", "PEM client certificate presented to mTLS fleets (with -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key for -tls-cert")
	cacheDir := fs.String("cache-dir", "",
		"content-addressed result-cache directory: cells whose semantic inputs hash to a stored entry are answered from it, and fresh results are stored for the next run")
	noCache := fs.Bool("no-cache", false,
		"recompute every cell even on a cache hit (fresh results still refresh the cache)")
	jsonOut := fs.String("json", "", "write the deterministic JSON report to this file")
	simulate := fs.Bool("simulate", false,
		"run flit-level wormhole simulations per cell: a pre-removal negative control (must deadlock when the CDG is cyclic) and a post-removal measurement (must never deadlock); a post-removal deadlock fails the sweep")
	certifyCells := fs.Bool("certify", false,
		"re-check every cell's pre- and post-removal design through the independent checker (internal/certify, no shared code with the engine); any three-leg disagreement fails the sweep")
	simCycles := fs.Int64("sim-cycles", 0, "simulation horizon per run (default 20000)")
	simLoad := fs.Float64("sim-load", 0, "simulation injection load factor in (0,1] (default 1.0 = saturation)")
	simAdaptive := fs.String("sim-adaptive", "",
		"per-hop output selection for adaptive cells: first-free (default), least-congested")
	quiet := fs.Bool("quiet", false, "suppress per-job progress on stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *workers != "" && *shardLocal > 0 {
		return fmt.Errorf("-workers and -shard-local are mutually exclusive")
	}
	if *coordinator != "" && (*workers != "" || *shardLocal > 0) {
		return fmt.Errorf("-coordinator is mutually exclusive with -workers and -shard-local")
	}
	if *shardLocal < 0 {
		return fmt.Errorf("-shard-local: worker count %d out of range", *shardLocal)
	}

	// An axis flag that filters out every value must fail loudly: falling
	// back to the axis default behind the user's back would sweep a grid
	// they explicitly emptied. emptyOK marks axes whose flag default is
	// "" — there an empty value means "use the library default", while a
	// value of only separators still empties the grid.
	axis := func(name, val string, emptyOK bool) ([]string, error) {
		vals := splitCSV(val)
		if len(vals) == 0 && !(emptyOK && val == "") {
			return nil, fmt.Errorf("empty grid: -%s %q selects no values", name, val)
		}
		return vals, nil
	}
	grid := runner.Grid{
		Faults:   *faults,
		MaxPaths: *maxPaths,
	}
	var err error
	if grid.Policies, err = axis("policies", *policies, false); err != nil {
		return err
	}
	if grid.Routings, err = axis("routing", *routing, true); err != nil {
		return err
	}
	if *benchmarks == "" || *benchmarks == "all" {
		grid.Benchmarks = traffic.BenchmarkNames()
	} else if grid.Benchmarks, err = axis("benchmarks", *benchmarks, false); err != nil {
		return err
	}
	if _, err = axis("switches", *switches, true); err != nil {
		return err
	}
	if grid.SwitchCounts, err = parseInts(*switches); err != nil {
		return fmt.Errorf("-switches: %w", err)
	}
	if _, err = axis("seeds", *seeds, false); err != nil {
		return err
	}
	if grid.Seeds, err = parseInt64s(*seeds); err != nil {
		return fmt.Errorf("-seeds: %w", err)
	}
	if grid.Loads, err = parseFloats(*loads); err != nil {
		return fmt.Errorf("-loads: %w", err)
	}
	if len(grid.Loads) > 0 && !*simulate {
		return fmt.Errorf("-loads requires -simulate (the load sweep measures the simulated designs)")
	}
	if len(grid.Jobs()) == 0 {
		// Backstop for any other way the cross product collapses: never
		// write a vacuous report and exit 0.
		return fmt.Errorf("empty grid: the axes select no cells to run")
	}
	adaptiveSel, err := wormhole.ParseAdaptiveSelection(*simAdaptive)
	if err != nil {
		return fmt.Errorf("-sim-adaptive: %w", err)
	}

	opts := runner.Options{
		Parallel: *parallel,
		Simulate: *simulate,
		Sim:      runner.SimParams{Cycles: *simCycles, Load: *simLoad, Adaptive: adaptiveSel},
		Certify:  *certifyCells,
		NoCache:  *noCache,
	}
	if !*quiet {
		opts.Progress = stderr
	}
	var cache *fabric.Cache
	if *cacheDir != "" {
		cache = fabric.NewCache(fabric.CacheOptions{Dir: *cacheDir})
		opts.CellCache = cache
	}
	// One TLS client serves the coordinator and every worker it names:
	// fleet members share a CA, so a single pinned transport covers both.
	var fleetClient *http.Client
	if *tlsCA != "" || *tlsCert != "" {
		tcfg, terr := fabric.ClientTLS(*tlsCA, *tlsCert, *tlsKey)
		if terr != nil {
			return terr
		}
		// No overall timeout: the dispatcher holds SSE streams open for
		// the life of a shard.
		fleetClient = fabric.HTTPClient(tcfg, 0)
	}
	var rep *runner.Report
	switch {
	case *coordinator != "":
		src, werr := fabric.WatchWorkers(ctx, *coordinator, *token, 0, fleetClient)
		if werr != nil {
			return werr
		}
		defer src.Close()
		rep, err = (&runner.Sharded{Source: src, AuthToken: *token, Client: fleetClient}).RunContext(ctx, grid, opts)
	case *workers != "" || *shardLocal > 0:
		urls := splitCSV(*workers)
		if *shardLocal > 0 {
			// Split the machine's budget across the spawned workers
			// instead of oversubscribing it shard-local-fold.
			per := max(1, *parallel / *shardLocal)
			wopts := serve.Options{Workers: 2, SweepParallel: per}
			if cache != nil {
				// The dispatcher hands each shard the cells it has cached;
				// a worker without a cache refuses them and computes them
				// again. One in-memory cache serves the local workers.
				wopts.Cache = fabric.NewCache(fabric.CacheOptions{})
				defer wopts.Cache.Close()
			}
			var shutdown func()
			urls, shutdown, err = serve.LocalCluster(*shardLocal, wopts)
			if err != nil {
				return err
			}
			defer shutdown()
		}
		rep, err = (&runner.Sharded{Workers: urls, AuthToken: *token, Client: fleetClient}).RunContext(ctx, grid, opts)
	default:
		rep, err = runner.RunContext(ctx, grid, opts)
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stderr, "cache: %d hits, %d misses (%.0f%% hit rate)\n",
			st.Hits, st.Misses, 100*st.HitRate())
	}
	if err != nil {
		return err
	}
	if err := runner.WriteTable(stdout, rep); err != nil {
		return err
	}
	if *simulate {
		if err := writeSimSummary(stdout, rep); err != nil {
			return err
		}
	}
	if *certifyCells {
		if err := writeCertSummary(stdout, rep); err != nil {
			return err
		}
	}
	if len(rep.Curves) > 0 {
		if err := writeCurveSummary(stdout, rep); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			return fmt.Errorf("%d of %d jobs failed (first: %s@%d: %s)",
				countErrors(rep), len(rep.Results), r.Benchmark, r.SwitchCount, r.Error)
		}
	}
	if *simulate {
		// The verification gate lives in the tool itself: any post-removal
		// deadlock — and a sweep that simulated nothing at all — exits
		// non-zero, so CI needs no external report inspection.
		simulated := 0
		for _, r := range rep.Results {
			if r.Sim == nil {
				continue
			}
			simulated++
			if r.Sim.PostDeadlock {
				cell := fmt.Sprintf("%s@%d/%s/seed%d", r.Benchmark, r.SwitchCount, r.Policy, r.Seed)
				if r.Routing != "" {
					cell += "/" + r.Routing
				}
				if r.Faults > 0 {
					cell += fmt.Sprintf("/f%d", r.Faults)
				}
				return fmt.Errorf("verification FAILED: %s deadlocked after removal", cell)
			}
		}
		if simulated == 0 && !rep.Canceled {
			return fmt.Errorf("verification FAILED: -simulate was set but no cell ran a simulation")
		}
	}
	if *certifyCells {
		// Same shape as the simulate gate: any cell whose independent
		// re-check disagrees with the engine (or, with -simulate, with the
		// empirical leg) exits non-zero, as does a sweep that certified
		// nothing.
		certified := 0
		for _, r := range rep.Results {
			if r.Certify == nil {
				continue
			}
			certified++
			if !r.Certify.Agree {
				cell := fmt.Sprintf("%s@%d/%s/seed%d", r.Benchmark, r.SwitchCount, r.Policy, r.Seed)
				if r.Routing != "" {
					cell += "/" + r.Routing
				}
				if r.Faults > 0 {
					cell += fmt.Sprintf("/f%d", r.Faults)
				}
				return fmt.Errorf("verification FAILED: %s: certified re-check disagrees: %s", cell, r.Certify.Mismatch)
			}
		}
		if certified == 0 && !rep.Canceled {
			return fmt.Errorf("verification FAILED: -certify was set but no cell was certified")
		}
	}
	if rep.Canceled {
		done := 0
		for _, r := range rep.Results {
			if !r.Canceled {
				done++
			}
		}
		return fmt.Errorf("interrupted: %d of %d jobs completed (partial report%s marked canceled)",
			done, len(rep.Results), jsonNote(*jsonOut))
	}
	return nil
}

// jsonNote names the written report file in the cancellation message.
func jsonNote(path string) string {
	if path == "" {
		return ""
	}
	return " " + path
}

// writeSimSummary prints the verification verdict of a simulated sweep:
// how many cells ran their negative control, how many of those deadlocked
// (demonstrating the hazard), and whether any post-removal design
// deadlocked (which must never happen).
func writeSimSummary(w io.Writer, rep *runner.Report) error {
	var simulated, preRan, preDeadlocked, postDeadlocked int
	for _, r := range rep.Results {
		if r.Sim == nil {
			continue
		}
		simulated++
		if r.Sim.PreRan {
			preRan++
		}
		if r.Sim.PreDeadlock {
			preDeadlocked++
		}
		if r.Sim.PostDeadlock {
			postDeadlocked++
		}
	}
	_, err := fmt.Fprintf(w, "\nverification: %d cells simulated; negative control: %d cyclic pre-removal designs, %d deadlocked; post-removal deadlocks: %d\n",
		simulated, preRan, preDeadlocked, postDeadlocked)
	return err
}

// writeCertSummary prints the certified-checker verdict of a sweep: how
// many cells were re-checked from first principles, the pre-removal
// verdict split, and how many cells disagreed with the engine (which
// must be zero).
func writeCertSummary(w io.Writer, rep *runner.Report) error {
	var certified, preCyclic, disagree int
	for _, r := range rep.Results {
		if r.Certify == nil {
			continue
		}
		certified++
		if !r.Certify.PreAcyclic {
			preCyclic++
		}
		if !r.Certify.Agree {
			disagree++
		}
	}
	_, err := fmt.Fprintf(w, "\ncertified: %d cells re-checked independently; %d cyclic pre-removal designs witnessed; disagreements: %d\n",
		certified, preCyclic, disagree)
	return err
}

// writeCurveSummary prints one line per design curve: the swept loads
// with mean latency and throughput at each, and the estimated saturation
// point.
func writeCurveSummary(w io.Writer, rep *runner.Report) error {
	if _, err := fmt.Fprintf(w, "\nload sweep (%d designs):\n", len(rep.Curves)); err != nil {
		return err
	}
	for _, c := range rep.Curves {
		id := fmt.Sprintf("%s@%d/%s", c.Benchmark, c.SwitchCount, c.Policy)
		if c.Routing != "" {
			id += "/" + c.Routing
		}
		if c.Faults > 0 {
			id += fmt.Sprintf("/f%d", c.Faults)
		}
		sat := "none in axis"
		if c.SaturationLoad > 0 {
			sat = fmt.Sprintf("%g", c.SaturationLoad)
		}
		if _, err := fmt.Fprintf(w, "  %s saturation=%s\n", id, sat); err != nil {
			return err
		}
		for _, p := range c.Points {
			if _, err := fmt.Fprintf(w, "    load %.3g: latency %.1f (p99 %d) throughput %.3f seeds %d deadlocks %d\n",
				p.Load, p.AvgLatency, p.P99, p.Throughput, p.Seeds, p.Deadlocks); err != nil {
				return err
			}
		}
	}
	return nil
}

func countErrors(rep *runner.Report) int {
	n := 0
	for _, r := range rep.Results {
		if r.Error != "" {
			n++
		}
	}
	return n
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitCSV(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, p := range splitCSV(s) {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func intsCSV(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}
