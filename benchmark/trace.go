package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Every op has a root span named "op" (Parent -1); the layer
// spans of that op name it as their parent. Times are nanoseconds since the
// tracer's epoch on the monotonic clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and counters of a traced phase in memory; they are
// analysed and written out only once the phase ends. It is safe for
// concurrent use: loopback workers record request spans from their own
// goroutines while the op runs.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	op     int // current op id, -1 between ops
	root   int // current op's root span id
	counts map[string]float64
	probes []func() error
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, root: -1, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.root = len(t.spans)
	t.spans = append(t.spans, span{ID: t.root, Parent: -1, Op: t.op, Name: "op", Start: now, End: -1})
}

// endOp closes the current op's root span and hands back the probes queued
// during the op, which the caller runs outside op time.
func (t *tracer) endOp() []func() error {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root].End = now
	t.root = -1
	probes := t.probes
	t.probes = nil
	return probes
}

// begin opens a span under the current op's root. A span begun between ops
// belongs to no op (Op -1) and is left out of the analysis.
func (t *tracer) begin(name string) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.op
	if t.root < 0 {
		op = -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.root, Op: op, Name: name, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed records f as one span named name.
func (t *tracer) timed(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// add accumulates a counter recorded at a layer boundary.
func (t *tracer) add(counter string, v float64) {
	t.mu.Lock()
	t.counts[counter] += v
	t.mu.Unlock()
}

// probe queues f to run after the current op ends: measurements such as
// the CDG build of the op's input design, which must not count as op time.
// An error from f fails the op.
func (t *tracer) probe(f func() error) {
	t.mu.Lock()
	t.probes = append(t.probes, f)
	t.mu.Unlock()
}

// snapshot returns copies of the recorded spans and counters.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), counts
}

// writeSpans writes spans as JSON lines, one object per span.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerOf maps a span name to its layer: the part before the first dot
// ("wormhole.run" → "wormhole"). The root span's layer is "op".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

type interval struct{ start, end int64 }

// clip limits a span to the root's interval; a span never ended is taken
// to run until the root ends.
func clip(s, root span) interval {
	end := s.End
	if end < 0 || end > root.End {
		end = root.End
	}
	start := max(s.Start, root.Start)
	return interval{start, max(start, end)}
}

// selfTimes returns the self time of every span of one op; ops[0] must be
// the op's root. Every instant of the root's interval is credited to the
// innermost spans active at that instant, split equally when several are
// (overlapping siblings, such as design groups evaluated in parallel). For
// children that do not overlap, a span's self time is therefore its
// duration minus the time its children cover, and in every case the self
// times of an op sum to its wall time.
func selfTimes(ops []span) []float64 {
	root := ops[0]
	ivs := make([]interval, len(ops))
	pos := make(map[int]int, len(ops))
	bounds := make([]int64, 0, 2*len(ops))
	for i, s := range ops {
		ivs[i] = clip(s, root)
		pos[s.ID] = i
		bounds = append(bounds, ivs[i].start, ivs[i].end)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	self := make([]float64, len(ops))
	active := make([]bool, len(ops))
	inner := make([]bool, len(ops)) // active with no active child
	for k := 0; k+1 < len(bounds); k++ {
		a, b := bounds[k], bounds[k+1]
		if a == b {
			continue
		}
		for i, iv := range ivs {
			active[i] = iv.start <= a && iv.end >= b
			inner[i] = active[i]
		}
		for i, s := range ops {
			if p, ok := pos[s.Parent]; ok && active[i] && i != p {
				inner[p] = false
			}
		}
		n := 0
		for _, in := range inner {
			if in {
				n++
			}
		}
		if n == 0 {
			continue
		}
		share := float64(b-a) / float64(n)
		for i, in := range inner {
			if in {
				self[i] += share
			}
		}
	}
	return self
}

// union returns the total length covered by the intervals.
func union(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	var cur interval
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= cur.end {
			cur.end = max(cur.end, iv.end)
			continue
		}
		if open {
			total += cur.end - cur.start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.end - cur.start
	}
	return float64(total)
}

// profile aggregates a traced phase's spans over its ops. All times are
// nanoseconds.
type profile struct {
	ops  int
	wall float64
	// self is the self time by layer; self["op"] is the op time no layer
	// span covers.
	self map[string]float64
	// dur and n are the clipped duration and count of spans by name.
	dur map[string]float64
	n   map[string]int
	// streamIdle is the op time no worker event stream was open.
	streamIdle float64
}

func analyze(spans []span) profile {
	p := profile{self: map[string]float64{}, dur: map[string]float64{}, n: map[string]int{}}
	byOp := map[int][]span{}
	var order []int
	for _, s := range spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent < 0 {
			// Root first, so selfTimes finds it at index 0.
			order = append(order, s.Op)
			byOp[s.Op] = append([]span{s}, byOp[s.Op]...)
			continue
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, op := range order {
		ss := byOp[op]
		root := ss[0]
		if root.End < root.Start {
			continue
		}
		wall := float64(root.End - root.Start)
		p.ops++
		p.wall += wall
		var streams []interval
		for i, st := range selfTimes(ss) {
			s := ss[i]
			p.self[layerOf(s.Name)] += st
			if i == 0 {
				continue
			}
			iv := clip(s, root)
			p.dur[s.Name] += float64(iv.end - iv.start)
			p.n[s.Name]++
			if s.Name == "serve.stream" {
				streams = append(streams, iv)
			}
		}
		p.streamIdle += wall - union(streams)
	}
	return p
}
