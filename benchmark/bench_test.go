package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the program must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type logWriter struct{ t *testing.T }

func (w logWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestSmoke runs every workload for two untraced and two traced ops at
// seed 0: no op may fail (golden digests included), the traced replay must
// reproduce the untraced reports, the printed metrics must be exactly those
// BENCHMARK.json declares, and the layer shares plus the unattributed time
// must account for the op wall time.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	sameDefs(t, "end_to_end", sp.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", sp.PerLayer, perLayer)

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), runConfig{
				workload: w.name, trace: true, setups: 1, maxOps: 2, log: logWriter{t},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted < 5 {
				t.Fatalf("%d of %d ops failed", res.failed, res.attempted)
			}
			printed(t, res, false, sp.EndToEnd)
			printed(t, res, true, sp.PerLayer)
			for _, d := range endToEnd {
				if !(res.endToEnd[d.Name] > 0) {
					t.Errorf("end-to-end metric %s reads %v", d.Name, res.endToEnd[d.Name])
				}
			}

			total := res.perLayer["runner.unattributed_ms_per_op"] / res.tracedWallMs
			for name, v := range res.perLayer {
				if strings.HasSuffix(name, "share") && name != "runtime.gc_cpu_share" {
					total += v
				}
			}
			if math.Abs(total-1) > 0.02 {
				t.Errorf("layer shares plus unattributed time cover %.4f of op wall time", total)
			}
		})
	}
}

func sameDefs(t *testing.T, section string, declared, program []metricDef) {
	t.Helper()
	if len(declared) != len(program) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", section, len(declared), len(program))
	}
	for i := range program {
		if declared[i] != program[i] {
			t.Errorf("%s metric %d: BENCHMARK.json says %+v, the program %+v", section, i, declared[i], program[i])
		}
	}
}

// printed checks the result line: exactly the four keys, and one metric
// per declared name with its declared unit.
func printed(t *testing.T, res *outcome, trace bool, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, res, trace); err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("result line keys: %s", buf.String())
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: printed %+v (present %v), want unit %q", d.Name, m, ok, d.Unit)
		}
	}
}
