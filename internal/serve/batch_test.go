package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	nocdr "github.com/nocdr/nocdr"
)

// TestSimulateBatchJob pins the batch request/response shape of
// /v1/simulate: config.seeds/config.loads arrays (the CLI flag names)
// select the batch engine and the result document becomes a
// seed-major variants array, each entry carrying its normalized tag plus
// the standard single-run fields.
func TestSimulateBatchJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	topo, traffic, routes := foreverDesign(t)

	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"topology": topo, "traffic": traffic, "routes": routes,
		"config": map[string]any{
			"max_cycles": int64(2000),
			"seeds":      []int64{1, 2},
			"loads":      []float64{0.3, 0.9},
		},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit batch sim: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("batch sim state %s error %q", st.State, st.Error)
	}
	data, _ := json.Marshal(st.Result)
	var out struct {
		Variants []struct {
			Seed      int64   `json:"seed"`
			Load      float64 `json:"load"`
			Cycles    int64   `json:"cycles"`
			Delivered int64   `json:"delivered_packets"`
		} `json:"variants"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		seed int64
		load float64
	}{{1, 0.3}, {1, 0.9}, {2, 0.3}, {2, 0.9}}
	if len(out.Variants) != len(want) {
		t.Fatalf("got %d variants, want %d: %s", len(out.Variants), len(want), data)
	}
	for i, v := range out.Variants {
		if v.Seed != want[i].seed || v.Load != want[i].load {
			t.Errorf("variant %d tagged (%d, %v), want (%d, %v)", i, v.Seed, v.Load, want[i].seed, want[i].load)
		}
		if v.Cycles != 2000 || v.Delivered == 0 {
			t.Errorf("variant %d ran %d cycles, delivered %d", i, v.Cycles, v.Delivered)
		}
	}
}

// TestSimulateSingleShapeUnchanged pins backward compatibility: a request
// with only the singular seed/load_factor fields must keep the original
// flat result document — no variants array.
func TestSimulateSingleShapeUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	topo, traffic, routes := foreverDesign(t)

	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"topology": topo, "traffic": traffic, "routes": routes,
		"config": map[string]any{
			"max_cycles": int64(2000), "load_factor": 0.5, "seed": int64(7),
		},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit sim: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("sim state %s error %q", st.State, st.Error)
	}
	data, _ := json.Marshal(st.Result)
	var out map[string]json.RawMessage
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if _, hasVariants := out["variants"]; hasVariants {
		t.Fatalf("single-value request produced batch shape: %s", data)
	}
	if _, ok := out["delivered_packets"]; !ok {
		t.Fatalf("single result document missing delivered_packets: %s", data)
	}
}

// TestSweepLoadsAliases pins the /v1/sweep seeds/loads handling: the
// top-level aliases fold into the grid, and a grid with a Loads axis on
// a simulated sweep yields per-cell load_sweep points and report-level
// curves.
func TestSweepLoadsAliases(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, SweepParallel: 2})
	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid": map[string]any{
			"benchmarks":    []string{"torus:4:transpose"},
			"switch_counts": []int{8},
		},
		"seeds":    []int64{1, 2},
		"loads":    []float64{0.2, 0.8},
		"simulate": true,
		"sim":      map[string]any{"cycles": int64(2000), "load": 0.5},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("sweep state %s error %q", st.State, st.Error)
	}
	data, _ := json.Marshal(st.Result)
	var rep nocdr.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("sweep results %d, want 2 (aliased seeds axis)", len(rep.Results))
	}
	for i, res := range rep.Results {
		if res.Sim == nil || len(res.Sim.LoadSweep) != 2 {
			t.Fatalf("cell %d missing load-sweep points: %+v", i, res.Sim)
		}
	}
	if len(rep.Curves) != 1 || len(rep.Curves[0].Points) != 2 {
		t.Fatalf("expected one 2-point design curve, got %+v", rep.Curves)
	}

	// Bad aliased loads must be rejected at submission time.
	if code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid":  map[string]any{"benchmarks": []string{"torus:4:transpose"}},
		"loads": []float64{1.5},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range aliased load accepted: status %d", code)
	}
}
