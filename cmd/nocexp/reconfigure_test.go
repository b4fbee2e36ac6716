package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nocdr/nocdr/internal/reconfig"
)

// writeTestDesign runs `nocexp design` into a temp file and returns the
// path.
func writeTestDesign(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "design.json")
	full := append([]string{"-out", path}, args...)
	if err := runDesign(context.Background(), full, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDesignWritesVerifiableBundle(t *testing.T) {
	path := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even", "-traffic", "all-to-all")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := reconfig.ReadDesign(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("written design invalid: %v", err)
	}
	if d.Grid.Cols != 4 || d.Grid.Rows != 4 || d.Grid.Wrap {
		t.Fatalf("grid %+v, want 4x4 mesh", d.Grid)
	}
}

func TestDesignRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-preset", "ring:4x4"},
		{"-preset", "mesh:4"},
		{"-preset", "mesh:1x4"},
		{"-routing", "zig-zag"},
		{"-traffic", "lumpy"},
		{"-preset", "mesh:4x4", "extra-arg"},
	} {
		if err := runDesign(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestReconfigureSeededFaults is the CLI acceptance path the smoke CI
// drives: seeded faults applied one event at a time, the in-tool
// verification gate green, the differential baseline reported, and both
// artifacts written and re-parseable.
func TestReconfigureSeededFaults(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even", "-traffic", "all-to-all")
	dir := t.TempDir()
	evolved := filepath.Join(dir, "evolved.json")
	deltas := filepath.Join(dir, "deltas.json")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault-count", "2", "-fault-seed", "1",
		"-differential", "-quiet", "-skip-sim", "-out", evolved, "-delta", deltas,
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vcs_added=", "differential:", "2 events committed", "design valid (acyclic)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(evolved)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := reconfig.ReadDesign(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("evolved design invalid: %v", err)
	}
	if got := len(d.Topology.FaultedLinks()); got != 2 {
		t.Fatalf("evolved design has %d faults, want 2", got)
	}
	data, err := os.ReadFile(deltas)
	if err != nil {
		t.Fatal(err)
	}
	var ds []json.RawMessage
	if err := json.Unmarshal(data, &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("delta report has %d entries, want 2", len(ds))
	}
	for _, raw := range ds {
		if err := new(reconfig.Delta).UnmarshalJSON(raw); err != nil {
			t.Fatalf("delta entry does not re-parse: %v", err)
		}
	}
}

// TestReconfigureStormTerminates drives the storm mode to its clean stop
// and checks the evolved design re-verifies.
func TestReconfigureStormTerminates(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "west-first", "-traffic", "all-to-all")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-storm", "-quiet", "-skip-sim",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "design valid (acyclic)") {
		t.Fatalf("storm output missing the verification verdict:\n%s", out.String())
	}
}

func TestReconfigureExplicitFaultAndDowntime(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even", "-traffic", "all-to-all")
	// Pick the fault the seed-0 selector would: deterministic and safe.
	var probe bytes.Buffer
	if err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault-count", "1", "-fault-seed", "0", "-quiet", "-skip-sim",
	}, &probe, io.Discard); err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(probe.String())
	if len(fields) < 2 || fields[0] != "fault" {
		t.Fatalf("cannot recover fault ID from %q", probe.String())
	}
	id := strings.TrimSuffix(fields[1], ":")
	var out bytes.Buffer
	err := runReconfigure(context.Background(), []string{
		"-design", design, "-fault", id, "-quiet", "-sim-cycles", "20000",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "downtime") {
		t.Fatalf("downtime estimate missing from output:\n%s", out.String())
	}
}

func TestReconfigureRejectsBadFlags(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even")
	for _, args := range [][]string{
		{},                  // no -design
		{"-design", design}, // no fault mode
		{"-design", design, "-fault", "1", "-storm"}, // two modes
		{"-design", design, "-fault", "nope"},        // unparseable
		{"-design", design, "-fault", "99999"},       // out of range: job fails
		{"-design", filepath.Join(t.TempDir(), "missing.json"), "-fault", "1"},
	} {
		if err := runReconfigure(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
