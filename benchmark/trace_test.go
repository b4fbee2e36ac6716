package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func checkSelf(t *testing.T, spans []span, want []float64) {
	t.Helper()
	got := selfTimes(spans)
	var sum float64
	for i := range want {
		sum += got[i]
		if !near(got[i], want[i]) {
			t.Errorf("span %s: self time %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	if wall := float64(spans[0].End - spans[0].Start); !near(sum, wall) {
		t.Errorf("self times sum to %v, want the wall time %v", sum, wall)
	}
}

func TestSelfTimesNested(t *testing.T) {
	// op [0,100): a [10,30), b [40,90) holding c [50,60).
	checkSelf(t, []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 90},
		{ID: 3, Parent: 2, Name: "c", Start: 50, End: 60},
	}, []float64{30, 20, 40, 10})
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Two parallel lanes a [0,60) and b [40,100) share their overlap;
	// a's child a2 [45,55) takes a's part of it while it runs.
	checkSelf(t, []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 0, End: 60},
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 100},
		{ID: 3, Parent: 1, Name: "a2", Start: 45, End: 55},
	}, []float64{0, 45, 50, 5})
}

func TestSelfTimesClipToRoot(t *testing.T) {
	// A span outliving the op and one never ended both stop at the op's end.
	checkSelf(t, []span{
		{ID: 0, Parent: -1, Name: "op", Start: 100, End: 200},
		{ID: 1, Parent: 0, Name: "late", Start: 180, End: 260},
		{ID: 2, Parent: 0, Name: "open", Start: 150, End: -1},
	}, []float64{50, 10, 40})
}

func TestAnalyze(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Name: "serve.stream", Start: 10, End: 50},
		{ID: 2, Parent: 0, Op: 0, Name: "serve.stream", Start: 30, End: 70},
		{ID: 3, Parent: 0, Op: 0, Name: "fabric.get", Start: 80, End: 90},
		// Recorded between ops: belongs to none.
		{ID: 4, Parent: -1, Op: -1, Name: "serve.status", Start: 100, End: 110},
		{ID: 5, Parent: -1, Op: 1, Name: "op", Start: 200, End: 250},
		{ID: 6, Parent: 5, Op: 1, Name: "core", Start: 200, End: 250},
	}
	p := analyze(spans)
	if p.ops != 2 || p.wall != 150 {
		t.Fatalf("ops %d wall %v, want 2 and 150", p.ops, p.wall)
	}
	want := map[string]float64{"op": 30, "serve": 60, "fabric": 10, "core": 50}
	for layer, w := range want {
		if !near(p.self[layer], w) {
			t.Errorf("self[%s] = %v, want %v", layer, p.self[layer], w)
		}
	}
	if p.dur["serve.stream"] != 80 || p.n["serve.stream"] != 2 || p.n["serve.status"] != 0 {
		t.Errorf("stream duration %v count %d, status count %d", p.dur["serve.stream"], p.n["serve.stream"], p.n["serve.status"])
	}
	// Streams cover [10,70) of op 0 and nothing of op 1.
	if p.streamIdle != 40+50 {
		t.Errorf("stream idle %v, want 90", p.streamIdle)
	}
}

func TestWriteSpans(t *testing.T) {
	in := []span{
		{ID: 0, Parent: -1, Op: 3, Name: "op", Start: 5, End: 9},
		{ID: 1, Parent: 0, Op: 3, Name: "wormhole.run", Start: 6, End: 8},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(in) {
		t.Errorf("%d lines for %d spans:\n%s", n, len(in), buf.String())
	}
	dec := json.NewDecoder(&buf)
	for i := 0; dec.More(); i++ {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if i >= len(in) || s != in[i] {
			t.Fatalf("line %d: got %+v", i, s)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4)
	cases := []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 8}, 0.5, 9.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.values)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.1}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}
	s := func(values ...float64) summary { return summarize("", values) }
	cases := []struct {
		d    metricDef
		b, c summary
		want string
	}{
		{rate, s(100, 101, 102, 99, 100), s(97, 98, 96, 97, 98), "within bound"},
		{rate, s(100, 101, 102, 99, 100), s(80, 81, 82, 79, 80), "worse"},
		{rate, s(60, 100, 140, 100, 100), s(95, 96, 97, 98, 99), "unresolved"},
		// Wide spread, but every change run beats every base run.
		{rate, s(60, 100, 140, 100, 100), s(150, 160, 170, 180, 190), "within bound"},
		// Tiny set-up times: a 50% change under the floor is no regression.
		{setup, s(0.01, 0.01, 0.01, 0.01, 0.01), s(0.015, 0.015, 0.015, 0.015, 0.015), "within bound"},
		{setup, s(1, 1, 1, 1, 1), s(1.5, 1.5, 1.5, 1.5, 1.5), "worse"},
	}
	for i, c := range cases {
		if got := verdict(c.d, c.b, c.c); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}
