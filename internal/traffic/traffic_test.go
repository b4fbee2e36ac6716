package traffic

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/nocdr/nocdr/internal/nocerr"
)

func TestAddCoreAndFlow(t *testing.T) {
	g := NewGraph("t")
	a := g.AddCore("cpu")
	b := g.AddCore("")
	if g.Core(a).Name != "cpu" || g.Core(b).Name != "core1" {
		t.Errorf("core names: %q %q", g.Core(a).Name, g.Core(b).Name)
	}
	id, err := g.AddFlow(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := g.Flow(id)
	if f.Src != a || f.Dst != b || f.Bandwidth != 100 || f.PacketFlits != 4 {
		t.Errorf("flow = %+v", f)
	}
}

func TestAddFlowValidation(t *testing.T) {
	g := NewGraph("t")
	a := g.AddCore("")
	b := g.AddCore("")
	if _, err := g.AddFlow(a, a, 1); err == nil {
		t.Error("self-flow accepted")
	}
	if _, err := g.AddFlow(a, 99, 1); err == nil {
		t.Error("unknown destination accepted")
	}
	id, err := g.AddFlow(a, b, -5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Flow(id).Bandwidth != 1 {
		t.Errorf("non-positive bandwidth not defaulted: %f", g.Flow(id).Bandwidth)
	}
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := g.AddFlow(a, b, bw); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("AddFlow bandwidth %v: err = %v, want ErrInvalidInput", bw, err)
		}
	}
	if g.NumFlows() != 1 {
		t.Errorf("rejected flows were appended: %d flows", g.NumFlows())
	}
}

func TestValidateRejectsNonFiniteBandwidth(t *testing.T) {
	for _, bw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := NewGraph("t")
		a := g.AddCore("")
		b := g.AddCore("")
		g.MustAddFlow(a, b, 10)
		g.flows[0].Bandwidth = bw
		if err := g.Validate(); !errors.Is(err, nocerr.ErrInvalidInput) {
			t.Errorf("Validate bandwidth %v: err = %v, want ErrInvalidInput", bw, err)
		}
	}
	g := NewGraph("overflow")
	a := g.AddCore("")
	b := g.AddCore("")
	g.MustAddFlow(a, b, math.MaxFloat64)
	g.MustAddFlow(b, a, math.MaxFloat64)
	if err := g.Validate(); !errors.Is(err, nocerr.ErrInvalidInput) {
		t.Errorf("Validate overflowing total: err = %v, want ErrInvalidInput", err)
	}
}

func TestSetPacketFlits(t *testing.T) {
	g := NewGraph("t")
	a := g.AddCore("")
	b := g.AddCore("")
	id := g.MustAddFlow(a, b, 10)
	if err := g.SetPacketFlits(id, 16); err != nil {
		t.Fatal(err)
	}
	if g.Flow(id).PacketFlits != 16 {
		t.Error("SetPacketFlits did not stick")
	}
	if err := g.SetPacketFlits(id, 0); err == nil {
		t.Error("zero packet length accepted")
	}
	if err := g.SetPacketFlits(99, 4); err == nil {
		t.Error("unknown flow accepted")
	}
}

func TestAggregates(t *testing.T) {
	g := NewGraph("t")
	a := g.AddCore("")
	b := g.AddCore("")
	c := g.AddCore("")
	g.MustAddFlow(a, b, 10)
	g.MustAddFlow(a, c, 20)
	g.MustAddFlow(a, b, 5)
	if got := g.TotalBandwidth(); got != 35 {
		t.Errorf("TotalBandwidth = %f", got)
	}
	if got := g.BandwidthBetween(a, b); got != 15 {
		t.Errorf("BandwidthBetween = %f", got)
	}
	if got := g.OutDegree(a); got != 2 {
		t.Errorf("OutDegree = %d", got)
	}
	m := g.CommMatrix()
	if m[a][b] != 15 || m[a][c] != 20 || m[b][a] != 0 {
		t.Errorf("CommMatrix = %v", m)
	}
}

func TestFlowsSortedByBandwidth(t *testing.T) {
	g := NewGraph("t")
	a := g.AddCore("")
	b := g.AddCore("")
	c := g.AddCore("")
	g.MustAddFlow(a, b, 10)
	g.MustAddFlow(b, c, 30)
	g.MustAddFlow(c, a, 30)
	order := g.FlowsSortedByBandwidth()
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("order = %v", order)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := D26Media()
	c := g.Clone()
	c.AddCore("extra")
	c.MustAddFlow(0, 1, 999)
	if g.NumCores() != 26 || g.NumFlows() == c.NumFlows() {
		t.Error("clone mutation affected original")
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 6 {
		t.Fatalf("expected 6 benchmarks, got %d", len(names))
	}
	for _, name := range names {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name != name {
			t.Errorf("benchmark %q reports name %q", name, g.Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("benchmark %q invalid: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if got := len(AllBenchmarks()); got != 6 {
		t.Errorf("AllBenchmarks returned %d", got)
	}
}

// TestByNameReturnsCopies pins ByName's ownership contract from four
// goroutines at once: every call returns a graph JSON-equal to its
// constructor's, and a caller that adds a flow or a core to one, or
// renames it, leaves the next call's graph unchanged.
func TestByNameReturnsCopies(t *testing.T) {
	constructors := map[string]func() *Graph{
		"D26_media": D26Media,
		"D36_4":     func() *Graph { return D36(4) },
		"D36_6":     func() *Graph { return D36(6) },
		"D36_8":     func() *Graph { return D36(8) },
		"D35_bot":   D35Bot,
		"D38_tvo":   D38TVO,
	}
	want := map[string][]byte{}
	for name, build := range constructors {
		data, err := build().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range BenchmarkNames() {
				for call := 0; call < 2; call++ {
					g, err := ByName(name)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err := g.MarshalJSON(); err != nil || !bytes.Equal(got, want[name]) {
						t.Errorf("%s call %d: graph differs from its constructor's (%v)", name, call, err)
						return
					}
					if _, err := g.AddFlow(0, 1, 7); err != nil {
						t.Error(err)
						return
					}
					g.AddCore("extra")
					g.Name = "mutated"
				}
			}
		}()
	}
	wg.Wait()
}

func TestD26MediaShape(t *testing.T) {
	g := D26Media()
	if g.NumCores() != 26 {
		t.Errorf("D26_media has %d cores, want 26", g.NumCores())
	}
	if g.NumFlows() < 40 {
		t.Errorf("D26_media has only %d flows", g.NumFlows())
	}
	// The paper calls it "multimedia and wireless": check both subsystems
	// generate traffic.
	var wireless, video bool
	for _, f := range g.Flows() {
		src, dst := g.Core(f.Src).Name, g.Core(f.Dst).Name
		if strings.HasPrefix(src, "w") && strings.HasPrefix(dst, "w") {
			wireless = true
		}
		if src == "vdec" || dst == "vdec" {
			video = true
		}
	}
	if !wireless || !video {
		t.Errorf("subsystem traffic missing: wireless=%v video=%v", wireless, video)
	}
}

func TestD36FanOut(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		g := D36(k)
		if g.NumCores() != 36 {
			t.Errorf("D36_%d has %d cores", k, g.NumCores())
		}
		if g.NumFlows() != 36*k {
			t.Errorf("D36_%d has %d flows, want %d", k, g.NumFlows(), 36*k)
		}
		for c := 0; c < 36; c++ {
			if d := g.OutDegree(CoreID(c)); d != k {
				t.Errorf("D36_%d core %d out-degree %d, want %d", k, c, d, k)
			}
		}
	}
}

func TestD36Deterministic(t *testing.T) {
	a, b := D36(8), D36(8)
	fa, fb := a.Flows(), b.Flows()
	if len(fa) != len(fb) {
		t.Fatal("nondeterministic flow count")
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestD36PanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("D36(0) did not panic")
		}
	}()
	D36(0)
}

func TestD35BotIsBottleneck(t *testing.T) {
	g := D35Bot()
	if g.NumCores() != 35 {
		t.Errorf("D35_bot has %d cores", g.NumCores())
	}
	// The five memories must receive traffic from many distinct masters.
	inDeg := map[CoreID]int{}
	for _, f := range g.Flows() {
		inDeg[f.Dst]++
	}
	hubs := 0
	for _, n := range inDeg {
		if n >= 10 {
			hubs++
		}
	}
	if hubs != 5 {
		t.Errorf("found %d hub cores, want 5", hubs)
	}
}

func TestD38TVOShape(t *testing.T) {
	g := D38TVO()
	if g.NumCores() != 38 {
		t.Errorf("D38_tvo has %d cores, want 38", g.NumCores())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both pipelines must reach the blender.
	blendIn := 0
	for _, f := range g.Flows() {
		if g.Core(f.Dst).Name == "blend" {
			blendIn++
		}
	}
	if blendIn < 3 {
		t.Errorf("blend in-degree %d, want >= 3", blendIn)
	}
}

func TestRandomKOut(t *testing.T) {
	g := RandomKOut("r", 12, 3, 42)
	if g.NumFlows() != 36 {
		t.Errorf("RandomKOut flows = %d", g.NumFlows())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	h := RandomKOut("r", 12, 3, 42)
	if h.NumFlows() != g.NumFlows() {
		t.Error("RandomKOut not deterministic")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := D26Media()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != g.Name || got.NumCores() != g.NumCores() || got.NumFlows() != g.NumFlows() {
		t.Error("round trip changed shape")
	}
	for i, f := range g.Flows() {
		if got.Flow(i) != f {
			t.Fatalf("flow %d changed: %+v vs %+v", i, got.Flow(i), f)
		}
	}
}

func TestReadRejectsBadJSON(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","cores":[{"id":1,"name":"a"}],"flows":[]}`,
		`{"name":"x","cores":[{"id":0,"name":"a"},{"id":1,"name":"b"}],"flows":[{"id":0,"src":0,"dst":0,"bandwidth":1}]}`,
		`{"name":"x","cores":[{"id":0,"name":"a"}],"flows":[{"id":0,"src":0,"dst":5,"bandwidth":1}]}`,
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad JSON accepted", i)
		}
	}
}

// Property: RandomKOut always produces a valid graph with exact out-degree
// k and n*k flows, for any seed.
func TestRandomKOutProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomKOut("p", 10, 3, seed)
		if g.Validate() != nil || g.NumFlows() != 30 {
			return false
		}
		for c := 0; c < 10; c++ {
			if g.OutDegree(CoreID(c)) != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every shipped benchmark validates and has no isolated cores
// (each core sends or receives at least one flow).
func TestBenchmarksNoIsolatedCores(t *testing.T) {
	for _, g := range AllBenchmarks() {
		used := make(map[CoreID]bool)
		for _, f := range g.Flows() {
			used[f.Src] = true
			used[f.Dst] = true
		}
		for _, c := range g.Cores() {
			if !used[c.ID] {
				t.Errorf("%s: core %d (%s) is isolated", g.Name, c.ID, c.Name)
			}
		}
	}
}
