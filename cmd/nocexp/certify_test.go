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

	"github.com/nocdr/nocdr/internal/certify"
)

// cyclicDesign is a minimal pre-removal bundle whose CDG is a 3-ring:
// three single-VC links chained by one route that revisits its start.
const cyclicDesign = `{
  "topology": {"links": [{"id": 0, "vcs": 1}, {"id": 1, "vcs": 1}, {"id": 2, "vcs": 1}]},
  "routes": {"routes": [{"flow": 0, "channels": [
    {"link": 0, "vc": 0}, {"link": 1, "vc": 0}, {"link": 2, "vc": 0}, {"link": 0, "vc": 0}
  ]}]}
}`

func TestCertifyWritesValidCertificate(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:4x4", "-routing", "odd-even", "-traffic", "all-to-all")
	certPath := filepath.Join(t.TempDir(), "cert.json")
	var errOut bytes.Buffer
	err := runCertify(context.Background(), []string{"-design", design, "-out", certPath}, io.Discard, &errOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	data, err := os.ReadFile(certPath)
	if err != nil {
		t.Fatal(err)
	}
	var cert certify.Certificate
	if err := json.Unmarshal(data, &cert); err != nil {
		t.Fatal(err)
	}
	if !cert.Acyclic || len(cert.TopoOrder) == 0 {
		t.Fatalf("post design certificate %+v", cert)
	}
	designData, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	if err := certify.Validate(&cert, designData); err != nil {
		t.Fatalf("written certificate does not validate: %v", err)
	}
	if !strings.Contains(errOut.String(), "acyclic") {
		t.Fatalf("summary missing verdict:\n%s", errOut.String())
	}
}

func TestCertifyStdoutDefault(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:3x3")
	var out bytes.Buffer
	if err := runCertify(context.Background(), []string{"-design", design}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var cert certify.Certificate
	if err := json.Unmarshal(out.Bytes(), &cert); err != nil {
		t.Fatalf("stdout is not a certificate: %v", err)
	}
	if cert.Salt != certify.Salt {
		t.Fatalf("salt %q", cert.Salt)
	}
}

// TestCertifyPreCounterexample drives the -pre path: a cyclic bundle must
// certify with a smallest-cycle witness and exit zero under -pre, and the
// same bundle without -pre must fail the in-tool gate.
func TestCertifyPreCounterexample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pre.json")
	if err := os.WriteFile(path, []byte(cyclicDesign), 0o644); err != nil {
		t.Fatal(err)
	}
	certPath := filepath.Join(t.TempDir(), "cert.json")
	if err := runCertify(context.Background(), []string{"-design", path, "-pre", "-out", certPath}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(certPath)
	if err != nil {
		t.Fatal(err)
	}
	var cert certify.Certificate
	if err := json.Unmarshal(data, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Acyclic || len(cert.Cycle) != 3 {
		t.Fatalf("want a 3-cycle counterexample, got %+v", cert)
	}

	err = runCertify(context.Background(), []string{"-design", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "CYCLIC") {
		t.Fatalf("cyclic design passed without -pre: %v", err)
	}
}

func TestCertifyModeGate(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:3x3")
	err := runCertify(context.Background(), []string{"-design", design, "-pre"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pre expects a cyclic design") {
		t.Fatalf("acyclic design passed under -pre: %v", err)
	}
}

func TestCertifyRejectsBadInvocations(t *testing.T) {
	design := writeTestDesign(t, "-preset", "mesh:3x3")
	for _, args := range [][]string{
		{},
		{"-design", filepath.Join(t.TempDir(), "missing.json")},
		{"-design", design, "stray-arg"},
	} {
		if err := runCertify(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
