package runner

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/traffic"
)

// buildSpec is the build-based check Grid.Validate used to run on every
// benchmark spec: it builds the whole design the spec names and reports
// whether that failed. It is the oracle Validate's parsed-spec check is
// pinned against.
func buildSpec(text string) error {
	s, err := parseSpec(text)
	if err != nil {
		return err
	}
	if s.preset() {
		_, _, err = s.build()
		return err
	}
	_, err = s.graph(0)
	return err
}

// specCorpus spells out every spec family at and around its boundaries,
// within the size limits, plus paper names, unknown names and junk.
func specCorpus() []string {
	var specs []string
	for _, fam := range []string{"mesh", "torus"} {
		for c := 0; c <= 9; c++ {
			specs = append(specs, fmt.Sprintf("%s:%d", fam, c))
			for _, pat := range []string{"transpose", "bitrev", "hotspot", "uniform"} {
				specs = append(specs, fmt.Sprintf("%s:%d:%s", fam, c, pat))
			}
			for r := 0; r <= 9; r++ {
				specs = append(specs, fmt.Sprintf("%s:%dx%d", fam, c, r))
				for _, pat := range []string{"transpose", "bitrev", "hotspot", "uniform"} {
					specs = append(specs, fmt.Sprintf("%s:%dx%d:%s", fam, c, r, pat))
				}
			}
		}
	}
	for n := 0; n <= 70; n++ {
		specs = append(specs, fmt.Sprintf("transpose:%d", n), fmt.Sprintf("bitrev:%d", n), fmt.Sprintf("hotspot:%d", n))
		for _, h := range []int{0, 1, 2, n / 8, n - 1, n, n + 1} {
			if h >= 0 {
				specs = append(specs, fmt.Sprintf("hotspot:%dx%d", n, h))
			}
		}
	}
	for c := 0; c <= 9; c++ {
		for f := 0; f <= 9; f++ {
			specs = append(specs, fmt.Sprintf("rand:%dx%d", c, f))
		}
	}
	specs = append(specs, traffic.BenchmarkNames()...)
	return append(specs,
		"", "D36_9", "d36_8", "D36_8 ", " D36_8", "D26", "nope",
		"mesh", "mesh:", "mesh:x4", "mesh:4x", "mesh:4x4:", "mesh:4x4:nope", "mesh:4:4",
		"mesh:-4", "mesh:+4", "mesh:4x4x4", "mesh:٤", "MESH:4", "grid:4x4",
		"torus:4x4:uniform:extra", "torus:4x4:Transpose",
		"rand:", "rand:8", "rand:8x", "rand:x3", "rand:-8x3", "rand:8x3:uniform", "rand:8x3x1",
		"transpose:", "transpose:4x4", "transpose:-16", "bitrev:8x2", "bitrev:0x10",
		"hotspot:", "hotspot:8x", "hotspot:x2", "hotspot:8x2x1", "uniform:16",
		"0004", "mesh:04", "hotspot:016x02", "rand:08x03",
	)
}

// TestValidateMatchesBuild pins the parsed-spec validation against the
// build-based oracle: within the size limits, both accept the same specs
// and fail the rest with the same error text and sentinels.
func TestValidateMatchesBuild(t *testing.T) {
	accepted := 0
	for _, text := range specCorpus() {
		want := buildSpec(text)
		got := Grid{Benchmarks: []string{text}, SwitchCounts: []int{4}}.Validate()
		if (got == nil) != (want == nil) {
			t.Errorf("%q: Validate = %v, build = %v", text, got, want)
			continue
		}
		if want == nil {
			accepted++
			continue
		}
		if got.Error() != want.Error() {
			t.Errorf("%q: Validate error %q, build error %q", text, got, want)
		}
		for _, sentinel := range []error{nocerr.ErrNotFound, nocerr.ErrInvalidInput} {
			if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
				t.Errorf("%q: Validate and build disagree on %v", text, sentinel)
			}
		}
	}
	// A corpus the oracle rejected wholesale would pin nothing.
	if accepted < 100 {
		t.Fatalf("only %d corpus specs accepted", accepted)
	}
}

// TestParseSpec pins the integers each family's grammar yields.
func TestParseSpec(t *testing.T) {
	for text, want := range map[string]spec{
		"mesh:4":            {family: "mesh", a: 4, b: 4, pattern: "uniform"},
		"torus:8x4:bitrev":  {family: "torus", a: 8, b: 4, pattern: "bitrev"},
		"mesh:6x6:hotspot":  {family: "mesh", a: 6, b: 6, pattern: "hotspot"},
		"rand:128x6":        {family: "rand", a: 128, b: 6},
		"transpose:16":      {family: "transpose", a: 16},
		"bitrev:32":         {family: "bitrev", a: 32},
		"hotspot:24":        {family: "hotspot", a: 24, b: 3},
		"hotspot:5":         {family: "hotspot", a: 5, b: 1},
		"hotspot:24x5":      {family: "hotspot", a: 24, b: 5},
		"D36_8":             {},
		"torus:4x4:nope":    {},
		"mesh:64x64":        {family: "mesh", a: 64, b: 64, pattern: "uniform"},
		"rand:4096x4095":    {family: "rand", a: 4096, b: 4095},
		"hotspot:8x9999999": {family: "hotspot", a: 8, b: 9999999},
	} {
		got, err := parseSpec(text)
		if err != nil {
			t.Errorf("%q: %v", text, err)
			continue
		}
		want.text = text
		if got != want {
			t.Errorf("%q parsed as %+v, want %+v", text, got, want)
		}
	}
	// A preset's traffic is the same-named family over its cores.
	s, _ := parseSpec("mesh:8x8:hotspot")
	if ts := s.trafficSpec(); ts != (spec{family: "hotspot", a: 64, b: 8}) {
		t.Errorf("mesh:8x8:hotspot traffic %+v", ts)
	}
	s, _ = parseSpec("torus:5x3")
	if ts := s.trafficSpec(); ts != (spec{family: "uniform", a: 15, b: 7}) {
		t.Errorf("torus:5x3 traffic %+v", ts)
	}
}

// TestValidateSpecLimits: a number that does not fit an int, or a spec
// naming more than MaxSpecCores cores, is rejected as invalid input at
// once, where building the design would exhaust memory or run for
// minutes. Specs at the limit pass.
func TestValidateSpecLimits(t *testing.T) {
	for _, text := range []string{
		"mesh:99999999999999999999",
		"mesh:99999999999999999999x2",
		"torus:2x99999999999999999999:uniform",
		"mesh:3000x3000",
		"mesh:4097x1",
		"mesh:1x4097",
		"torus:65x64",
		"mesh:3037000500x3037000500", // the product overflows an int
		"rand:99999999999999999999x2",
		"rand:8x99999999999999999999",
		"rand:3000000x2",
		"rand:4097x2",
		"transpose:5000",
		"bitrev:8192",
		"hotspot:99999999999999999999",
		"hotspot:8x99999999999999999999",
		"hotspot:4097x2",
	} {
		start := time.Now()
		err := Grid{Benchmarks: []string{text}, SwitchCounts: []int{4}}.Validate()
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Errorf("%q: Validate took %v", text, elapsed)
		}
		if !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("%q: Validate = %v, want ErrInvalidInput", text, err)
		}
	}
	for _, text := range []string{"mesh:64x64", "torus:64x64:bitrev", "mesh:4096x1", "rand:4096x2", "bitrev:4096", "transpose:4096", "hotspot:4096x4095"} {
		if err := (Grid{Benchmarks: []string{text}, SwitchCounts: []int{4}}).Validate(); err != nil {
			t.Errorf("%q at the size limit rejected: %v", text, err)
		}
	}
}

// TestValidateCellLimit: Validate counts the grid's cells exactly, with
// overflow-checked products, and rejects a grid above MaxGridCells; Jobs
// enumerates exactly that many cells.
func TestValidateCellLimit(t *testing.T) {
	huge := func(n int) Grid {
		g := Grid{Benchmarks: []string{"D36_8"}}
		for i := 0; i < n; i++ {
			g.SwitchCounts = append(g.SwitchCounts, i+1)
			g.Routings = append(g.Routings, "dor")
			g.Policies = append(g.Policies, "smallest")
			g.Seeds = append(g.Seeds, int64(i))
		}
		return g
	}
	// 10^20 cells as a five-axis product: it overflowed Jobs' slice size.
	if err := huge(100000).Validate(); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("100000^4-cell grid: Validate = %v, want ErrInvalidInput", err)
	}

	// Routings cross presets only, switch counts synthesized benchmarks
	// only: 256 policies × 256 seeds is exactly the limit for one preset,
	// however long the switch-count axis, and one routing more is over.
	policies := make([]string, 256)
	for i := range policies {
		policies[i] = "smallest"
	}
	seeds := make([]int64, 256)
	for i := range seeds {
		seeds[i] = int64(i)
	}
	atLimit := Grid{Benchmarks: []string{"mesh:4"}, SwitchCounts: make([]int, 1000), Policies: policies, Seeds: seeds}
	for i := range atLimit.SwitchCounts {
		atLimit.SwitchCounts[i] = i + 1
	}
	if err := atLimit.Validate(); err != nil {
		t.Fatalf("grid of exactly %d cells rejected: %v", MaxGridCells, err)
	}
	if n := len(atLimit.Jobs()); n != MaxGridCells {
		t.Fatalf("Jobs enumerated %d cells, want %d", n, MaxGridCells)
	}
	over := atLimit
	over.Routings = []string{"dor", "odd-even"}
	if err := over.Validate(); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Fatalf("grid of %d cells: Validate = %v, want ErrInvalidInput", 2*MaxGridCells, err)
	}

	for _, g := range []Grid{
		{},
		{Benchmarks: []string{"D26_media", "mesh:4", "torus:4x4:transpose", "rand:8x3"}, SwitchCounts: []int{4, 8, 12}, Routings: []string{"west-first", "odd-even"}, Seeds: []int64{0, 1}},
		{Benchmarks: []string{"mesh:4"}, Policies: []string{"smallest", "first"}},
		{Benchmarks: []string{"D36_8", "D36_8"}, SwitchCounts: []int{8, 8}},
	} {
		n := g.normalized()
		presets := 0
		for _, b := range n.Benchmarks {
			if s, _ := parseSpec(b); s.preset() {
				presets++
			}
		}
		if count, ok := n.cellCount(presets); !ok || count != len(g.Jobs()) {
			t.Errorf("%+v: cellCount %d (ok %v), Jobs %d", g, count, ok, len(g.Jobs()))
		}
	}
}

// TestValidateAllocs caps what validation costs: it parses the specs and
// builds nothing (building took 736 allocations on the fleet grid).
func TestValidateAllocs(t *testing.T) {
	for _, g := range []Grid{
		{
			Benchmarks:   []string{"mesh:4x4:transpose", "torus:4x4:transpose", "mesh:6x6:transpose"},
			SwitchCounts: []int{16},
			Policies:     []string{"smallest"},
			Routings:     []string{"west-first", "odd-even", "min-adaptive"},
			Faults:       1,
			Seeds:        []int64{0, 1, 2, 3},
		},
		{Benchmarks: []string{"rand:128x6", "D36_8"}},
	} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = g.Validate() }); allocs > 10 {
			t.Errorf("Validate(%s) allocates %v times per call, want at most 10", strings.Join(g.Benchmarks, ","), allocs)
		}
	}
}
