package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSweepSerialParallelJSONIdentical is the CLI-level acceptance check:
// the JSON report from `nocexp sweep -parallel N` must be byte-identical
// to the serial run over the same grid.
func TestSweepSerialParallelJSONIdentical(t *testing.T) {
	dir := t.TempDir()
	serialPath := filepath.Join(dir, "serial.json")
	parallelPath := filepath.Join(dir, "parallel.json")
	base := []string{"-switches", "5,8,11,14", "-quiet"}
	if err := runSweep(context.Background(), append(base, "-parallel", "1", "-json", serialPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(context.Background(), append(base, "-parallel", "8", "-json", parallelPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("serial and parallel sweep JSON reports differ")
	}
	if !strings.Contains(string(serial), "\"benchmark\": \"D36_8\"") {
		t.Error("report missing benchmark rows")
	}
}

func TestSweepTableOutput(t *testing.T) {
	var out bytes.Buffer
	err := runSweep(context.Background(), []string{"-benchmarks", "D36_8", "-switches", "10", "-policies", "smallest,first", "-quiet"},
		&out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchmark", "D36_8", "smallest", "first", "2 jobs, 0 errors"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

func TestSweepRandSpec(t *testing.T) {
	var out bytes.Buffer
	err := runSweep(context.Background(), []string{"-benchmarks", "rand:16x4", "-switches", "6,8", "-seeds", "1,2",
		"-quiet"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 jobs, 0 errors") {
		t.Errorf("expected 4 clean jobs:\n%s", out.String())
	}
}

func TestSweepSimulate(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "sim.json")
	var out bytes.Buffer
	err := runSweep(context.Background(), []string{"-simulate", "-benchmarks", "D26_media,torus:4x4:uniform",
		"-switches", "8", "-seeds", "0,1", "-quiet", "-json", jsonPath}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim", "verification:", "post-removal deadlocks: 0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("simulated sweep output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"post_deadlock\": false") {
		t.Error("JSON report missing sim results")
	}
	if strings.Contains(string(data), "\"post_deadlock\": true") {
		t.Error("JSON report contains a post-removal deadlock")
	}
	// The torus negative control must demonstrate the hazard.
	if !strings.Contains(string(data), "\"pre_deadlock\": true") {
		t.Error("no negative-control deadlock in JSON report")
	}
}

func TestSweepWithoutSimulateHasNoSimBlock(t *testing.T) {
	var out bytes.Buffer
	err := runSweep(context.Background(), []string{"-benchmarks", "D26_media", "-switches", "8", "-quiet"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "verification:") {
		t.Error("verification summary printed without -simulate")
	}
}

func TestSweepRejectsBadFlags(t *testing.T) {
	if err := runSweep(context.Background(), []string{"-benchmarks", "no_such"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runSweep(context.Background(), []string{"-switches", "five"}, io.Discard, io.Discard); err == nil {
		t.Error("non-numeric switch count accepted")
	}
	if err := runSweep(context.Background(), []string{"extra"}, io.Discard, io.Discard); err == nil {
		t.Error("positional argument accepted")
	}
}

// TestSweepCanceledPartialReport pins the interrupt contract: a canceled
// sweep still writes a valid JSON report, marked canceled, with every
// unfinished cell marked canceled too, and runSweep reports the
// interruption as an error.
func TestSweepCanceledPartialReport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "partial.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any job is scheduled: everything partial
	err := runSweep(ctx, []string{"-benchmarks", "D26_media", "-switches", "8,11", "-quiet",
		"-json", jsonPath}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("expected interruption error, got %v", err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("canceled sweep wrote no JSON report: %v", err)
	}
	var rep struct {
		Canceled bool `json:"canceled"`
		Results  []struct {
			Benchmark string `json:"benchmark"`
			Canceled  bool   `json:"canceled"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("partial report is not valid JSON: %v", err)
	}
	if !rep.Canceled {
		t.Fatal("partial report not marked canceled")
	}
	if len(rep.Results) != 2 {
		t.Fatalf("partial report has %d result slots, want 2", len(rep.Results))
	}
	for i, r := range rep.Results {
		if !r.Canceled {
			t.Fatalf("result %d not marked canceled", i)
		}
		if r.Benchmark != "D26_media" {
			t.Fatalf("result %d lost its job identity: %q", i, r.Benchmark)
		}
	}
}

// TestSweepShardLocalMatchesSerial is the CLI-level conformance check of
// the sharded backend: `-shard-local 2` routes the grid through two
// in-process serve workers over real HTTP and must write a JSON report
// byte-identical to the serial run.
func TestSweepShardLocalMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	serialPath := filepath.Join(dir, "serial.json")
	shardedPath := filepath.Join(dir, "sharded.json")
	base := []string{"-benchmarks", "mesh:4,torus:4x4:transpose", "-routing", "west-first,odd-even",
		"-faults", "1", "-quiet"}
	if err := runSweep(context.Background(), append(base, "-parallel", "1", "-json", serialPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(context.Background(), append(base, "-shard-local", "2", "-json", shardedPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := os.ReadFile(shardedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, sharded) {
		t.Fatal("serial and shard-local sweep JSON reports differ")
	}
}

// seedRecorder counts POST /v1/cache/seed requests and their answers on
// their way through the transport it wraps.
type seedRecorder struct {
	next http.RoundTripper

	mu     sync.Mutex
	status map[int]int
}

func (s *seedRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := s.next.RoundTrip(req)
	if err == nil && req.Method == http.MethodPost && req.URL.Path == "/v1/cache/seed" {
		s.mu.Lock()
		s.status[resp.StatusCode]++
		s.mu.Unlock()
	}
	return resp, err
}

// TestSweepShardLocalWarmHandOff pins the shard-local workers' cache:
// with -cache-dir the dispatcher hands every partially warm shard the
// cells it has cached, and a local worker must take them, not answer
// 409 and compute them again. The grid is cached for seed 0 and then
// swept for seeds 0–3 over two local workers; the report must match the
// serial one.
func TestSweepShardLocalWarmHandOff(t *testing.T) {
	rec := &seedRecorder{next: http.DefaultTransport, status: map[int]int{}}
	http.DefaultTransport = rec
	t.Cleanup(func() { http.DefaultTransport = rec.next })

	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	serialPath := filepath.Join(dir, "serial.json")
	shardedPath := filepath.Join(dir, "sharded.json")
	base := []string{"-benchmarks", "mesh:4,torus:4x4:transpose,mesh:3x3:hotspot",
		"-routing", "west-first,odd-even,min-adaptive", "-faults", "1", "-quiet"}
	ctx := context.Background()
	if err := runSweep(ctx, append(base, "-seeds", "0", "-parallel", "1", "-cache-dir", cacheDir), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	all := []string{"-seeds", "0,1,2,3"}
	if err := runSweep(ctx, append(append(base, all...), "-shard-local", "2", "-cache-dir", cacheDir, "-json", shardedPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(ctx, append(append(base, all...), "-parallel", "1", "-json", serialPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.status[http.StatusOK] == 0 {
		t.Fatalf("no cache seed hand-off was accepted (answers by status: %v)", rec.status)
	}
	if n := rec.status[http.StatusConflict]; n > 0 {
		t.Fatalf("%d cache seed hand-offs answered 409 (answers by status: %v)", n, rec.status)
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := os.ReadFile(shardedPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, sharded) {
		t.Fatal("serial and warm shard-local sweep JSON reports differ")
	}
}

// TestSweepEmptyGridFails pins the empty-grid fix: axes that filter out
// every cell must exit non-zero with a clear error and write no report,
// never a vacuous report with exit 0.
func TestSweepEmptyGridFails(t *testing.T) {
	dir := t.TempDir()
	for i, args := range [][]string{
		{"-benchmarks", ","},
		{"-switches", ", ,"},
		{"-seeds", ","},
		{"-policies", ""},
		{"-routing", ","},
	} {
		jsonPath := filepath.Join(dir, fmt.Sprintf("empty-%d.json", i))
		err := runSweep(context.Background(), append(args, "-quiet", "-json", jsonPath), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "empty grid") {
			t.Errorf("%v: expected an empty-grid error, got %v", args, err)
		}
		if _, statErr := os.Stat(jsonPath); statErr == nil {
			t.Errorf("%v: empty grid still wrote a report", args)
		}
	}
}

// TestSweepShardFlagsExclusive rejects -workers together with
// -shard-local.
func TestSweepShardFlagsExclusive(t *testing.T) {
	err := runSweep(context.Background(), []string{"-workers", "http://localhost:1", "-shard-local", "2"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("expected a mutual-exclusion error, got %v", err)
	}
	if err := runSweep(context.Background(), []string{"-shard-local", "-1"}, io.Discard, io.Discard); err == nil {
		t.Error("negative -shard-local accepted")
	}
}

// TestSweepLoadsCurves pins the -loads flag end to end: the JSON report
// carries per-cell load_sweep points and per-design curves, the stdout
// summary prints the curve block, and serial vs parallel runs stay
// byte-identical with the loads axis in play.
func TestSweepLoadsCurves(t *testing.T) {
	dir := t.TempDir()
	serialPath := filepath.Join(dir, "serial.json")
	parallelPath := filepath.Join(dir, "parallel.json")
	base := []string{"-benchmarks", "torus:4:transpose", "-seeds", "1,2",
		"-simulate", "-sim-cycles", "2000", "-sim-load", "0.8", "-loads", "0.2,0.6", "-quiet"}
	var out bytes.Buffer
	if err := runSweep(context.Background(), append(base, "-parallel", "1", "-json", serialPath), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"load sweep (1 designs):", "torus:4:transpose@16", "load 0.2:", "load 0.6:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("curve summary missing %q:\n%s", want, out.String())
		}
	}
	if err := runSweep(context.Background(), append(base, "-parallel", "4", "-json", parallelPath), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatal("serial and parallel load-sweep JSON reports differ")
	}
	var rep struct {
		Results []struct {
			Sim *struct {
				LoadSweep []struct {
					Load float64 `json:"load"`
				} `json:"load_sweep"`
			} `json:"sim"`
		} `json:"results"`
		Curves []struct {
			Points         []json.RawMessage `json:"points"`
			SaturationLoad float64           `json:"saturation_load"`
		} `json:"curves"`
	}
	if err := json.Unmarshal(serial, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	for i, r := range rep.Results {
		if r.Sim == nil || len(r.Sim.LoadSweep) != 2 {
			t.Fatalf("cell %d missing load_sweep points", i)
		}
	}
	if len(rep.Curves) != 1 || len(rep.Curves[0].Points) != 2 {
		t.Fatalf("unexpected curves in report: %s", serial)
	}

	// -loads without -simulate must fail fast.
	if err := runSweep(context.Background(), []string{"-benchmarks", "torus:4:transpose", "-loads", "0.5", "-quiet"},
		io.Discard, io.Discard); err == nil {
		t.Error("-loads without -simulate accepted")
	}
	// Out-of-range loads must be rejected by grid validation.
	if err := runSweep(context.Background(), []string{"-benchmarks", "torus:4:transpose", "-simulate", "-loads", "1.5", "-quiet"},
		io.Discard, io.Discard); err == nil {
		t.Error("out-of-range -loads accepted")
	}
	// A NaN measurement load must fail the simulated cell, not inject at
	// an implementation-defined rate.
	if err := runSweep(context.Background(), []string{"-benchmarks", "mesh:4", "-simulate", "-sim-cycles", "2000", "-sim-load", "NaN", "-quiet"},
		io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "LoadFactor") {
		t.Errorf("-sim-load NaN: got %v, want a LoadFactor error", err)
	}
}
