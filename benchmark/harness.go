package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	nocdr "github.com/nocdr/nocdr"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the base median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics of an untraced run, what a user of the sweep
// engine sees. Bounds come from the quartile spread over ten seeds per
// workload on the sizing host: 4% for allocation, 8% for memory, and for
// the times up to 22% while the host was quiet and more under other
// tenants' load, hence the 25% ceiling.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_cell", "KiB/cell", "lower", 0.15},
	{"max_rss_mb", "MiB", "lower", 0.2},
}

// perLayer are the metrics of a traced run. A share is the layer's self
// time over op wall time.
var perLayer = []metricDef{
	{Name: "synth.ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "synth.share", Unit: "ratio", Better: "lower"},
	{Name: "route.ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "route.paths_per_cell", Unit: "paths/cell", Better: "lower"},
	{Name: "route.share", Unit: "ratio", Better: "lower"},
	{Name: "cdg.build_ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "cdg.dependencies_per_cell", Unit: "deps/cell", Better: "lower"},
	{Name: "core.ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "core.breaks_per_cell", Unit: "breaks/cell", Better: "lower"},
	{Name: "core.us_per_break", Unit: "us/break", Better: "lower"},
	{Name: "core.vcs_per_cell", Unit: "VCs/cell", Better: "lower"},
	{Name: "core.share", Unit: "ratio", Better: "lower"},
	{Name: "ordering.ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "ordering.share", Unit: "ratio", Better: "lower"},
	{Name: "certify.ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "certify.encode_ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "certify.share", Unit: "ratio", Better: "lower"},
	{Name: "wormhole.witness_ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "wormhole.build_ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "wormhole.run_ms_per_cell", Unit: "ms/cell", Better: "lower"},
	{Name: "wormhole.sim_cycles_per_s", Unit: "cycles/s", Better: "higher"},
	{Name: "wormhole.flits_per_s", Unit: "flits/s", Better: "higher"},
	{Name: "wormhole.deadlocked_lanes_per_op", Unit: "lanes/op", Better: "higher"},
	{Name: "wormhole.share", Unit: "ratio", Better: "lower"},
	{Name: "fabric.key_us_per_cell", Unit: "us/cell", Better: "lower"},
	{Name: "fabric.get_us_per_cell", Unit: "us/cell", Better: "lower"},
	{Name: "fabric.put_us_per_cell", Unit: "us/cell", Better: "lower"},
	{Name: "fabric.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fabric.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.submits_per_op", Unit: "requests/op", Better: "lower"},
	{Name: "serve.streams_per_op", Unit: "requests/op", Better: "lower"},
	{Name: "serve.status_polls_per_op", Unit: "requests/op", Better: "lower"},
	{Name: "serve.stream_ms_per_shard", Unit: "ms/shard", Better: "lower"},
	{Name: "serve.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "runner.shards_per_op", Unit: "shards/op", Better: "lower"},
	{Name: "runner.retries_per_op", Unit: "retries/op", Better: "lower"},
	{Name: "runner.idle_ms_per_op", Unit: "ms/op", Better: "lower"},
	{Name: "runner.unattributed_ms_per_op", Unit: "ms/op", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_kb_per_cell", Unit: "KiB/cell", Better: "lower"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

type runConfig struct {
	workload string
	seed     int64
	// seconds is the measured time; a traced run splits it evenly between
	// an untraced and a traced phase.
	seconds float64
	trace   bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// maxOps, when > 0, ends each phase after that many ops instead.
	maxOps int
	// spans receives the traced phase's spans as JSON lines, if non-nil.
	spans io.Writer
	// log receives a line per failed op.
	log io.Writer
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64 // traced runs only
	// tracedWallMs is the traced phase's mean op wall time.
	tracedWallMs float64
}

// phase accumulates the ops of one measured stretch.
type phase struct {
	ops, failed int
	cells       int
	opSeconds   []float64
	allocs      uint64
	gcCPU, cpu  float64
}

func (p *phase) totalSeconds() float64 {
	var s float64
	for _, d := range p.opSeconds {
		s += d
	}
	return s
}

type harness struct {
	cfg    runConfig
	golden map[string]string // seed-0 digests, nil for other seeds
	seen   map[string]string // digest of every op key run so far
	rt     runtimeReader
	// refOps counts the untimed reference ops of traced loops.
	refOps phase
}

func runWorkload(ctx context.Context, cfg runConfig) (*outcome, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	h := &harness{cfg: cfg, seen: map[string]string{}, rt: newRuntimeReader()}
	if cfg.seed == 0 {
		if h.golden, err = goldenDigests(cfg.workload); err != nil {
			return nil, err
		}
	}

	warm := &phase{}
	setups := make([]float64, 0, cfg.setups)
	var inst *instance
	for r := 0; r < max(cfg.setups, 1); r++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		if inst, err = w.setup(ctx, cfg.seed, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		for i := 0; i < inst.warmup; i++ {
			h.attempt(ctx, inst, inst.ops[i%len(inst.ops)], nil, warm)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	untraced := h.loop(ctx, inst, nil, nil, inst.warmup, dur)
	out := &outcome{endToEnd: endToEndMetrics(setups, untraced)}
	phases := []*phase{warm, untraced, &h.refOps}

	if cfg.trace {
		tr := newTracer()
		tinst, err := w.setup(ctx, cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s traced set-up: %w", cfg.workload, err)
		}
		defer tinst.close()
		traced := h.loop(ctx, tinst, inst, tr, 0, dur)
		phases = append(phases, traced)
		spans, counts := tr.snapshot()
		prof := analyze(spans)
		out.perLayer = perLayerMetrics(prof, counts, traced, untraced, tinst.remote)
		out.tracedWallMs = div(prof.wall/1e6, float64(prof.ops))
		if cfg.spans != nil {
			if err := writeSpans(cfg.spans, spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	for _, p := range phases {
		out.attempted += p.ops
		out.failed += p.failed
	}
	return out, nil
}

// loop runs ops from index first until dur has passed (or maxOps ran).
// A traced loop first obtains, untimed, the untraced digest of any op key
// it has none for, so every traced op has a report to match.
func (h *harness) loop(ctx context.Context, inst, ref *instance, tr *tracer, first int, dur time.Duration) *phase {
	p := &phase{}
	start := time.Now()
	for i := first; ; i++ {
		if h.cfg.maxOps > 0 {
			if i-first >= h.cfg.maxOps {
				break
			}
		} else if time.Since(start) >= dur {
			break
		}
		op := inst.ops[i%len(inst.ops)]
		if ref != nil && !h.known(inst, op) {
			h.attempt(ctx, ref, op, nil, &h.refOps)
		}
		h.attempt(ctx, inst, op, tr, p)
	}
	return p
}

func (h *harness) known(inst *instance, op opDef) bool {
	_, golden := h.golden[op.key]
	_, ref := inst.refs[op.key]
	_, seen := h.seen[op.key]
	return golden || ref || seen
}

// attempt runs and verifies one op. Only the sweep itself is timed; the
// runtime counters are read around it, and a traced op's probes run after
// its clock stops.
func (h *harness) attempt(ctx context.Context, inst *instance, op opDef, tr *tracer, p *phase) {
	before := h.rt.read()
	if tr != nil {
		tr.beginOp()
	}
	start := time.Now()
	reps, err := inst.sweep(ctx, op)
	elapsed := time.Since(start)
	var probes []func() error
	if tr != nil {
		probes = tr.endOp()
	}
	after := h.rt.read()
	for _, probe := range probes {
		if perr := probe(); perr != nil && err == nil {
			err = perr
		}
	}

	p.ops++
	p.cells += op.cells
	p.opSeconds = append(p.opSeconds, elapsed.Seconds())
	p.allocs += after.allocs - before.allocs
	p.gcCPU += after.gcCPU - before.gcCPU
	p.cpu += after.cpu - before.cpu
	if err == nil {
		err = h.verify(inst, op, reps)
	}
	if err != nil {
		p.failed++
		if h.cfg.log != nil {
			fmt.Fprintf(h.cfg.log, "%s: op %s failed: %v\n", h.cfg.workload, op.key, err)
		}
	}
}

// verify checks a finished op: no failed or canceled cell, the workload's
// invariants, and the report digest against the golden one (seed 0), the
// serial reference (sharded ops) and every earlier run of the same op.
func (h *harness) verify(inst *instance, op opDef, reps []*nocdr.SweepReport) error {
	for _, rep := range reps {
		if rep.Canceled {
			return errors.New("report canceled")
		}
		for _, r := range rep.Results {
			switch {
			case r.Error != "":
				return fmt.Errorf("%s: %s", r.Job.Key(), r.Error)
			case r.Canceled, r.Skipped:
				return fmt.Errorf("%s: not evaluated", r.Job.Key())
			}
		}
	}
	if inst.check != nil {
		if err := inst.check(op, reps); err != nil {
			return err
		}
	}
	d, err := digest(reps)
	if err != nil {
		return err
	}
	if h.golden != nil {
		g, ok := h.golden[op.key]
		if !ok {
			return fmt.Errorf("no golden digest for op %s", op.key)
		}
		if d != g {
			return fmt.Errorf("report digest %s differs from the golden %s", d, g)
		}
	}
	if r, ok := inst.refs[op.key]; ok && d != r {
		return fmt.Errorf("report digest %s differs from the serial report's %s", d, r)
	}
	if s, ok := h.seen[op.key]; ok && d != s {
		return fmt.Errorf("report digest %s differs from an earlier run's %s", d, s)
	}
	h.seen[op.key] = d
	return nil
}

// digest is the SHA-256 of the op's reports as WriteJSON renders them.
func digest(reps []*nocdr.SweepReport) (string, error) {
	sum := sha256.New()
	for _, rep := range reps {
		if err := rep.WriteJSON(sum); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

func endToEndMetrics(setups []float64, p *phase) map[string]float64 {
	cells := float64(p.cells)
	ms := make([]float64, len(p.opSeconds))
	for i, s := range p.opSeconds {
		ms[i] = s * 1e3
	}
	sort.Float64s(ms)
	return map[string]float64{
		"setup_s":           median(setups),
		"cells_per_s":       div(cells, p.totalSeconds()),
		"op_p50_ms":         percentile(ms, 50),
		"op_p90_ms":         percentile(ms, 90),
		"alloc_kb_per_cell": div(float64(p.allocs)/1024, cells),
		"max_rss_mb":        maxRSSMiB(),
	}
}

func perLayerMetrics(p profile, c map[string]float64, traced, untraced *phase, remote bool) map[string]float64 {
	cells, ops := float64(traced.cells), float64(p.ops)
	msPerCell := func(ns float64) float64 { return div(ns/1e6, cells) }
	usPerCell := func(ns float64) float64 { return div(ns/1e3, cells) }
	share := func(layer string) float64 { return div(p.self[layer], p.wall) }
	layerDur := func(layer string) float64 {
		var ns float64
		for name, d := range p.dur {
			if layerOf(name) == layer {
				ns += d
			}
		}
		return ns
	}
	idle := 0.0
	if remote {
		idle = div(p.streamIdle/1e6, ops)
	}
	tracedRate := div(float64(traced.cells), traced.totalSeconds())
	untracedRate := div(float64(untraced.cells), untraced.totalSeconds())
	return map[string]float64{
		"synth.ms_per_cell":                msPerCell(p.dur["synth"]),
		"synth.share":                      share("synth"),
		"route.ms_per_cell":                msPerCell(layerDur("route")),
		"route.paths_per_cell":             div(c["route.paths"], cells),
		"route.share":                      share("route"),
		"cdg.build_ms_per_cell":            msPerCell(c["cdg.build_ns"]),
		"cdg.dependencies_per_cell":        div(c["cdg.deps"], cells),
		"core.ms_per_cell":                 msPerCell(p.dur["core"]),
		"core.breaks_per_cell":             div(c["core.breaks"], cells),
		"core.us_per_break":                div(p.dur["core"]/1e3, c["core.breaks"]),
		"core.vcs_per_cell":                div(c["core.vcs"], cells),
		"core.share":                       share("core"),
		"ordering.ms_per_cell":             msPerCell(p.dur["ordering"]),
		"ordering.share":                   share("ordering"),
		"certify.ms_per_cell":              msPerCell(layerDur("certify")),
		"certify.encode_ms_per_cell":       msPerCell(p.dur["certify.encode"]),
		"certify.share":                    share("certify"),
		"wormhole.witness_ms_per_cell":     msPerCell(p.dur["wormhole.witness"]),
		"wormhole.build_ms_per_cell":       msPerCell(p.dur["wormhole.build"]),
		"wormhole.run_ms_per_cell":         msPerCell(p.dur["wormhole.run"]),
		"wormhole.sim_cycles_per_s":        div(c["wormhole.cycles"], p.dur["wormhole.run"]/1e9),
		"wormhole.flits_per_s":             div(c["wormhole.flits"], p.dur["wormhole.run"]/1e9),
		"wormhole.deadlocked_lanes_per_op": div(c["wormhole.deadlocked"], ops),
		"wormhole.share":                   share("wormhole"),
		"fabric.key_us_per_cell":           div(c["fabric.key_ns"]/1e3, c["fabric.keys"]),
		"fabric.get_us_per_cell":           usPerCell(p.dur["fabric.get"]),
		"fabric.put_us_per_cell":           usPerCell(p.dur["fabric.put"]),
		"fabric.hit_ratio":                 div(c["fabric.hits"], c["fabric.hits"]+c["fabric.misses"]),
		"fabric.share":                     share("fabric"),
		"serve.submits_per_op":             div(float64(p.n["serve.submit"]), ops),
		"serve.streams_per_op":             div(float64(p.n["serve.stream"]), ops),
		"serve.status_polls_per_op":        div(float64(p.n["serve.status"]), ops),
		"serve.stream_ms_per_shard":        div(p.dur["serve.stream"]/1e6, c["runner.shards"]),
		"serve.busy_share":                 share("serve"),
		"runner.shards_per_op":             div(c["runner.shards"], ops),
		"runner.retries_per_op":            div(c["runner.retries"], ops),
		"runner.idle_ms_per_op":            idle,
		"runner.unattributed_ms_per_op":    div(p.self["op"]/1e6, ops),
		"runtime.gc_cpu_share":             div(traced.gcCPU, traced.cpu),
		"runtime.alloc_kb_per_cell":        div(float64(traced.allocs)/1024, cells),
		"trace.overhead":                   1 - div(tracedRate, untracedRate),
	}
}

// printResult writes the run's result as one JSON line: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func printResult(w io.Writer, out *outcome, trace bool) error {
	defs, vals := endToEnd, out.endToEnd
	if trace {
		defs, vals = perLayer, out.perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(childResult{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// metricValue is one metric of a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runtimeReader reads the Go runtime's allocation and CPU counters.
type runtimeReader struct{ s []metrics.Sample }

type runtimeSample struct {
	allocs     uint64
	gcCPU, cpu float64
}

func newRuntimeReader() runtimeReader {
	return runtimeReader{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (r runtimeReader) read() runtimeSample {
	metrics.Read(r.s)
	return runtimeSample{r.s[0].Value.Uint64(), r.s[1].Value.Float64(), r.s[2].Value.Float64()}
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
