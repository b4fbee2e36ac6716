// Cross-validation of the independent checker against the engine: the
// external test package deliberately imports reconfig/cdg/core — the
// code the checker must agree with while sharing none of.
package certify_test

import (
	"encoding/json"
	"testing"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/reconfig"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/traffic"
)

// buildDesign produces a removed (acyclic) design bundle on a grid, the
// same artifact `nocexp design` writes.
func buildDesign(t *testing.T, wrap bool, cols, rows int, model string) *reconfig.Design {
	t.Helper()
	var g *regular.Grid
	var err error
	if wrap {
		g, err = regular.Torus(cols, rows)
	} else {
		g, err = regular.Mesh(cols, rows)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr := traffic.NewGraph("stride")
	n := cols * rows
	for i := 0; i < n; i++ {
		tr.AddCore("")
	}
	for i := 0; i < n; i++ {
		if d := (i + n/2) % n; d != i {
			tr.MustAddFlow(traffic.CoreID(i), traffic.CoreID(d), 100)
		}
	}
	tm, err := route.ParseTurnModel(model)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := reconfig.New(g, tr, tm, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCheckAgainstEngine certifies real post-removal bundles and
// cross-checks the checker's verdict against the engine's own CDG.
func TestCheckAgainstEngine(t *testing.T) {
	cases := []struct {
		name  string
		wrap  bool
		model string
	}{
		{"mesh4x4_oddEven", false, "odd-even"},
		{"mesh4x4_westFirst", false, "west-first"},
		{"torus4x4_oddEven", true, "odd-even"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := buildDesign(t, tc.wrap, 4, 4, tc.model)
			data, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			cert, err := certify.Check(data, "post")
			if err != nil {
				t.Fatalf("Check: %v", err)
			}
			if !cert.Acyclic {
				t.Fatalf("checker calls a removed design cyclic; cycle %v", cert.Cycle)
			}
			if len(cert.TopoOrder) != cert.Channels {
				t.Fatalf("topo order has %d entries, %d channels", len(cert.TopoOrder), cert.Channels)
			}
			if cert.Salt != certify.Salt || cert.CheckerVersion != certify.Version {
				t.Fatalf("certificate identity %q/%d", cert.Salt, cert.CheckerVersion)
			}

			// Engine leg: the same design through internal/cdg.
			g, _, err := cdg.BuildSet(d.Topology, d.Routes)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Acyclic() {
				t.Fatal("engine CDG disagrees: cyclic")
			}
			if want := len(d.Topology.Channels()); cert.Channels != want {
				t.Fatalf("checker sees %d channels, topology has %d", cert.Channels, want)
			}

			// The witness must survive independent validation.
			if err := certify.Validate(cert, data); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			// And a JSON round-trip of the certificate must too.
			enc, err := json.Marshal(cert)
			if err != nil {
				t.Fatal(err)
			}
			var back certify.Certificate
			if err := json.Unmarshal(enc, &back); err != nil {
				t.Fatal(err)
			}
			if err := certify.Validate(&back, data); err != nil {
				t.Fatalf("Validate after round-trip: %v", err)
			}
		})
	}
}

// TestCheckPreRemoval feeds the checker a torus with plain DOR-ish
// cyclic routes (hand-built wraparound ring) and expects a validated
// cycle witness.
func TestCheckPreRemoval(t *testing.T) {
	// A 1-VC unidirectional 3-ring: 0→1→2→0 with one flow per hop pair
	// creates the classic wraparound dependency cycle.
	design := []byte(`{
		"version": 1,
		"topology": {"name": "ring3", "switches": [{"id":0},{"id":1},{"id":2}],
			"links": [{"id":0,"from":0,"to":1,"vcs":1},{"id":1,"from":1,"to":2,"vcs":1},{"id":2,"from":2,"to":0,"vcs":1}],
			"cores": [], "faults": []},
		"routes": {"routes": [
			{"flow":0,"channels":[{"link":0,"vc":0},{"link":1,"vc":0}]},
			{"flow":1,"channels":[{"link":1,"vc":0},{"link":2,"vc":0}]},
			{"flow":2,"channels":[{"link":2,"vc":0},{"link":0,"vc":0}]}]}
	}`)
	cert, err := certify.Check(design, "pre")
	if err != nil {
		t.Fatal(err)
	}
	if cert.Acyclic {
		t.Fatal("checker calls the wraparound ring acyclic")
	}
	if len(cert.Cycle) != 3 {
		t.Fatalf("smallest cycle has %d channels, want 3: %v", len(cert.Cycle), cert.Cycle)
	}
	if err := certify.Validate(cert, design); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateRejectsTampering pins the binding: a certificate must not
// validate against different bytes, a doctored witness, or a wrong
// checker version.
func TestValidateRejectsTampering(t *testing.T) {
	d := buildDesign(t, false, 4, 4, "odd-even")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := certify.Check(data, "post")
	if err != nil {
		t.Fatal(err)
	}

	tampered := append([]byte(nil), data...)
	tampered = append(tampered, ' ')
	if err := certify.Validate(cert, tampered); err == nil {
		t.Error("certificate validated against different design bytes")
	}

	swapped := *cert
	swapped.TopoOrder = append([]certify.Channel(nil), cert.TopoOrder...)
	swapped.TopoOrder[0], swapped.TopoOrder[len(swapped.TopoOrder)-1] =
		swapped.TopoOrder[len(swapped.TopoOrder)-1], swapped.TopoOrder[0]
	if err := certify.Validate(&swapped, data); err == nil {
		t.Error("doctored topological order validated")
	}

	wrongVer := *cert
	wrongVer.CheckerVersion = certify.Version + 1
	if err := certify.Validate(&wrongVer, data); err == nil {
		t.Error("future checker version validated")
	}
}

// TestCheckDeterministic pins byte-identical certificates across runs —
// the property the sweep cache's byte-identity invariant leans on.
func TestCheckDeterministic(t *testing.T) {
	d := buildDesign(t, true, 4, 4, "negative-first")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	a, err := certify.Check(data, "post")
	if err != nil {
		t.Fatal(err)
	}
	b, err := certify.Check(data, "post")
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("certificates differ across runs:\n%s\n%s", ja, jb)
	}
}

// TestCheckModeRecorded pins that mode is recorded verbatim and bad
// modes are rejected.
func TestCheckModeRecorded(t *testing.T) {
	d := buildDesign(t, false, 4, 4, "odd-even")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := certify.Check(data, "pre")
	if err != nil {
		t.Fatal(err)
	}
	if cert.Mode != "pre" {
		t.Fatalf("mode %q", cert.Mode)
	}
	if _, err := certify.Check(data, "sideways"); err == nil {
		t.Fatal("bad mode accepted")
	}
}
