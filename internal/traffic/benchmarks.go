package traffic

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// The paper evaluates on six SoC benchmarks from Murali et al. (ASPDAC'09)
// that were never released publicly. The constructors below are synthetic
// reconstructions that match every parameter the paper states (core
// counts, fan-out, application domain) and the structural character the
// names imply (pipelines and hubs for the media SoCs, uniform k-out-degree
// for the D36 family, shared-target bottleneck for D35_bot, dual pipelines
// for the TV picture-in-picture design). All are deterministic: the random
// family uses fixed seeds.

// benchmarks are the paper's benchmarks in the order of Figure 10, each
// with its graph, built by its constructor on first use and never handed
// out: ByName returns copies.
var benchmarks = [...]struct {
	name  string
	build func() *Graph
}{
	{"D26_media", sync.OnceValue(D26Media)},
	{"D36_4", sync.OnceValue(func() *Graph { return D36(4) })},
	{"D36_6", sync.OnceValue(func() *Graph { return D36(6) })},
	{"D36_8", sync.OnceValue(func() *Graph { return D36(8) })},
	{"D35_bot", sync.OnceValue(D35Bot)},
	{"D38_tvo", sync.OnceValue(D38TVO)},
}

// BenchmarkNames lists the paper's benchmarks in the order of Figure 10.
func BenchmarkNames() []string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.name
	}
	return names
}

// CheckName returns the error ByName fails with on name, or nil if name
// is one of BenchmarkNames. It builds nothing.
func CheckName(name string) error {
	_, err := lookup(name)
	return err
}

func lookup(name string) (func() *Graph, error) {
	for _, b := range benchmarks {
		if b.name == name {
			return b.build, nil
		}
	}
	return nil, fmt.Errorf("traffic: unknown benchmark %q (valid: %v): %w", name, BenchmarkNames(), nocerr.ErrNotFound)
}

// ByName returns the named benchmark graph, a copy the caller owns.
// Valid names are those in BenchmarkNames.
func ByName(name string) (*Graph, error) {
	build, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return build().Clone(), nil
}

// AllBenchmarks returns every benchmark graph in BenchmarkNames order.
func AllBenchmarks() []*Graph {
	names := BenchmarkNames()
	out := make([]*Graph, len(names))
	for i, n := range names {
		g, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: names come from BenchmarkNames
		}
		out[i] = g
	}
	return out
}

// D26Media reconstructs the 26-core multimedia + wireless SoC
// (D26_media): a camera/video pipeline, a DSP filter chain, an audio path,
// a wireless modem path, four memories acting as traffic hubs, and
// low-rate peripherals hanging off the CPU.
func D26Media() *Graph {
	g := NewGraph("D26_media")
	names := []string{
		"cpu", "dsp1", "dsp2", "dsp3", "dsp4", // 0-4
		"venc", "vdec", "aenc", "adec", // 5-8
		"mem1", "mem2", "mem3", "mem4", // 9-12
		"dma", "wmac", "wbb", "wrf", // 13-16
		"disp", "cam", "usb", "spi", // 17-20
		"uart", "gpio", "rast", "scaler", "jpeg", // 21-25
	}
	for _, n := range names {
		g.AddCore(n)
	}
	id := func(name string) CoreID {
		for i, n := range names {
			if n == name {
				return CoreID(i)
			}
		}
		panic("unknown core " + name)
	}
	type fl struct {
		src, dst string
		bw       float64
	}
	flows := []fl{
		// Camera capture and encode path.
		{"cam", "jpeg", 320}, {"jpeg", "mem1", 240}, {"mem1", "venc", 240},
		{"venc", "mem2", 160}, {"mem2", "dma", 160}, {"dma", "usb", 80},
		// Video decode and display path.
		{"mem1", "vdec", 280}, {"vdec", "scaler", 280}, {"scaler", "rast", 200},
		{"rast", "disp", 400}, {"vdec", "mem2", 120},
		// DSP filter chain over mem3.
		{"mem3", "dsp1", 180}, {"dsp1", "dsp2", 180}, {"dsp2", "dsp3", 180},
		{"dsp3", "dsp4", 180}, {"dsp4", "mem3", 180},
		// Audio path.
		{"mem3", "adec", 48}, {"adec", "spi", 48}, {"aenc", "mem3", 48},
		{"spi", "aenc", 48},
		// Wireless modem path through mem4.
		{"wrf", "wbb", 260}, {"wbb", "wmac", 220}, {"wmac", "mem4", 220},
		{"mem4", "wmac", 220}, {"wmac", "wbb", 220}, {"wbb", "wrf", 260},
		{"mem4", "dma", 100}, {"dma", "mem1", 100},
		// CPU control plane: program memories and peripherals.
		{"cpu", "mem1", 120}, {"mem1", "cpu", 120}, {"cpu", "mem2", 100},
		{"mem2", "cpu", 100}, {"cpu", "mem4", 60}, {"mem4", "cpu", 60},
		{"cpu", "uart", 8}, {"uart", "cpu", 8}, {"cpu", "gpio", 4},
		{"gpio", "cpu", 4}, {"cpu", "usb", 40}, {"usb", "cpu", 40},
		{"cpu", "wmac", 32}, {"cpu", "vdec", 24}, {"cpu", "venc", 24},
		{"cpu", "dsp1", 16}, {"cpu", "disp", 12}, {"cpu", "spi", 6},
		// DMA bulk moves between memories.
		{"dma", "mem2", 140}, {"mem2", "mem3", 0}, // placeholder replaced below
	}
	// mem2→mem3 via dma is expressed as two flows instead:
	flows[len(flows)-1] = fl{"mem3", "dma", 90}
	flows = append(flows, fl{"dma", "mem4", 90})
	for _, f := range flows {
		g.MustAddFlow(id(f.src), id(f.dst), f.bw)
	}
	// Long video packets, short control packets.
	for _, f := range g.Flows() {
		switch {
		case f.Bandwidth >= 200:
			g.SetPacketFlits(f.ID, 12)
		case f.Bandwidth >= 80:
			g.SetPacketFlits(f.ID, 8)
		default:
			g.SetPacketFlits(f.ID, 4)
		}
	}
	return g
}

// D36 reconstructs the 36-core D36_k family: every core sends one flow to
// k distinct other cores ("Each processing core sends data to eight other
// cores" for k = 8). Peers and bandwidths are drawn from a fixed seed per
// k, so D36(8) is identical across runs.
func D36(k int) *Graph {
	if k < 1 || k > 35 {
		panic(fmt.Sprintf("traffic: D36 fan-out %d out of range", k))
	}
	g := NewGraph(fmt.Sprintf("D36_%d", k))
	const n = 36
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	rng := rand.New(rand.NewSource(int64(3600 + k)))
	for src := 0; src < n; src++ {
		perm := rng.Perm(n)
		picked := 0
		var dsts []int
		for _, d := range perm {
			if d == src {
				continue
			}
			dsts = append(dsts, d)
			picked++
			if picked == k {
				break
			}
		}
		sort.Ints(dsts) // stable flow ordering independent of perm order
		for _, d := range dsts {
			bw := float64(16 * (1 + rng.Intn(8))) // 16..128 MB/s
			fid := g.MustAddFlow(CoreID(src), CoreID(d), bw)
			g.SetPacketFlits(fid, 4+2*rng.Intn(4))
		}
	}
	return g
}

// D35Bot reconstructs the 35-core bottleneck benchmark (D35_bot): 30
// masters sharing 5 slave memories, with request and response traffic
// concentrating on the slaves — the hub-heavy pattern the name implies.
func D35Bot() *Graph {
	g := NewGraph("D35_bot")
	const nMasters, nSlaves = 30, 5
	for i := 0; i < nMasters; i++ {
		g.AddCore(fmt.Sprintf("m%d", i))
	}
	for i := 0; i < nSlaves; i++ {
		g.AddCore(fmt.Sprintf("mem%d", i))
	}
	slave := func(i int) CoreID { return CoreID(nMasters + i) }
	for i := 0; i < nMasters; i++ {
		primary := i % nSlaves
		secondary := (i + 1) % nSlaves
		m := CoreID(i)
		g.MustAddFlow(m, slave(primary), 64)   // write requests
		g.MustAddFlow(slave(primary), m, 128)  // read responses
		g.MustAddFlow(m, slave(secondary), 24) // spill traffic
	}
	for _, f := range g.Flows() {
		if f.Bandwidth >= 128 {
			g.SetPacketFlits(f.ID, 8)
		}
	}
	return g
}

// D38TVO reconstructs the 38-core TV picture-in-picture benchmark
// (D38_tvo): two parallel video pipelines that converge on a shared
// blender/display, plus shared memories and a control processor.
func D38TVO() *Graph {
	g := NewGraph("D38_tvo")
	// Pipeline A: 15 stages, pipeline B: 15 stages, shared: 8 cores.
	const stages = 15
	var pa, pb []CoreID
	for i := 0; i < stages; i++ {
		pa = append(pa, g.AddCore(fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < stages; i++ {
		pb = append(pb, g.AddCore(fmt.Sprintf("b%d", i)))
	}
	memA := g.AddCore("memA")
	memB := g.AddCore("memB")
	memS := g.AddCore("memS")
	ctrl := g.AddCore("ctrl")
	blend := g.AddCore("blend")
	disp := g.AddCore("disp")
	osd := g.AddCore("osd")
	tuner := g.AddCore("tuner")
	pipe := func(p []CoreID, mem CoreID, bw float64) {
		for i := 0; i+1 < len(p); i++ {
			g.MustAddFlow(p[i], p[i+1], bw)
		}
		// Middle stages spill frames to the pipeline's memory.
		g.MustAddFlow(p[len(p)/3], mem, bw/2)
		g.MustAddFlow(mem, p[len(p)/3+1], bw/2)
		g.MustAddFlow(p[2*len(p)/3], mem, bw/2)
		g.MustAddFlow(mem, p[2*len(p)/3+1], bw/2)
	}
	pipe(pa, memA, 200) // main picture
	pipe(pb, memB, 120) // inset picture
	g.MustAddFlow(tuner, pa[0], 200)
	g.MustAddFlow(tuner, pb[0], 120)
	g.MustAddFlow(pa[stages-1], blend, 200)
	g.MustAddFlow(pb[stages-1], blend, 120)
	g.MustAddFlow(osd, blend, 40)
	g.MustAddFlow(blend, memS, 160)
	g.MustAddFlow(memS, disp, 320)
	g.MustAddFlow(ctrl, memS, 32)
	g.MustAddFlow(memS, ctrl, 32)
	for _, c := range []CoreID{pa[0], pb[0], blend, disp, osd, tuner} {
		g.MustAddFlow(ctrl, c, 8)
	}
	for _, f := range g.Flows() {
		if f.Bandwidth >= 160 {
			g.SetPacketFlits(f.ID, 10)
		} else if f.Bandwidth >= 80 {
			g.SetPacketFlits(f.ID, 6)
		}
	}
	return g
}

// RandomKOut generates an n-core graph where every core sends to k
// distinct peers, like the D36 family but with caller-controlled size and
// seed. It is used by property tests and scaling studies.
func RandomKOut(name string, n, k int, seed int64) *Graph {
	if err := CheckRandomKOut(n, k); err != nil {
		panic(err)
	}
	g := NewGraph(name)
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	rng := rand.New(rand.NewSource(seed))
	// perm is refilled for every source with rand.Perm's own loop, so the
	// draws and the permutation are Perm's, without a slice per core.
	perm := make([]int, n)
	dsts := make([]int, 0, k)
	for src := 0; src < n; src++ {
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		dsts = dsts[:0]
		for _, d := range perm {
			if d != src {
				dsts = append(dsts, d)
				if len(dsts) == k {
					break
				}
			}
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			g.MustAddFlow(CoreID(src), CoreID(d), float64(8*(1+rng.Intn(16))))
		}
	}
	return g
}

// CheckRandomKOut returns the error RandomKOut panics with on n cores of
// out-degree k, or nil if it accepts them.
func CheckRandomKOut(n, k int) error {
	if n < 2 || k < 1 || k >= n {
		return fmt.Errorf("traffic: RandomKOut(%d, %d) out of range", n, k)
	}
	return nil
}
