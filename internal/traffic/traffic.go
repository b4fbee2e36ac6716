// Package traffic models the paper's communication graph G(V,E)
// (Definition 2): vertices are application cores and directed edges are
// communication flows between them. It also ships deterministic
// reconstructions of the SoC benchmarks used in the paper's evaluation
// (D26_media, D36_4, D36_6, D36_8, D35_bot, D38_tvo); see benchmarks.go.
package traffic

import (
	"fmt"
	"math"
	"sort"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// CoreID identifies an application core (a vertex of G).
type CoreID int

// Core is a processing element, memory, or peripheral attached to the NoC.
type Core struct {
	ID   CoreID
	Name string
}

// Flow is a directed communication between two cores. Bandwidth is in
// MB/s and is used by topology synthesis (clustering weight) and by the
// simulator (injection rate). PacketFlits is the packet length used when
// the flow is simulated.
type Flow struct {
	ID          int
	Src, Dst    CoreID
	Bandwidth   float64
	PacketFlits int
}

// Graph is a communication graph: cores plus flows. The zero value is an
// empty graph; prefer NewGraph.
type Graph struct {
	Name  string
	cores []Core
	flows []Flow
}

// NewGraph returns an empty communication graph with the given name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name}
}

// AddCore appends a core and returns its ID. An empty name becomes
// "core<id>".
func (g *Graph) AddCore(name string) CoreID {
	id := CoreID(len(g.cores))
	if name == "" {
		name = fmt.Sprintf("core%d", id)
	}
	g.cores = append(g.cores, Core{ID: id, Name: name})
	return id
}

// AddFlow appends a flow src→dst and returns its ID. Self-flows, unknown
// cores and non-finite bandwidths are rejected. A non-positive bandwidth
// defaults to 1 MB/s and the packet length to 4 flits, so hand-built
// graphs stay simulable.
func (g *Graph) AddFlow(src, dst CoreID, bandwidth float64) (int, error) {
	if !g.ValidCore(src) || !g.ValidCore(dst) {
		return 0, fmt.Errorf("traffic: flow %d→%d references unknown core", src, dst)
	}
	if src == dst {
		return 0, fmt.Errorf("traffic: self-flow on core %d", src)
	}
	if !finite(bandwidth) {
		return 0, fmt.Errorf("traffic: flow %d→%d bandwidth %v is not finite: %w", src, dst, bandwidth, nocerr.ErrInvalidInput)
	}
	if bandwidth <= 0 {
		bandwidth = 1
	}
	id := len(g.flows)
	g.flows = append(g.flows, Flow{ID: id, Src: src, Dst: dst, Bandwidth: bandwidth, PacketFlits: 4})
	return id, nil
}

// MustAddFlow is AddFlow that panics on error, for benchmark builders.
func (g *Graph) MustAddFlow(src, dst CoreID, bandwidth float64) int {
	id, err := g.AddFlow(src, dst, bandwidth)
	if err != nil {
		panic(err)
	}
	return id
}

// SetPacketFlits overrides the packet length of flow id.
func (g *Graph) SetPacketFlits(id, flits int) error {
	if id < 0 || id >= len(g.flows) {
		return fmt.Errorf("traffic: unknown flow %d", id)
	}
	if flits < 1 {
		return fmt.Errorf("traffic: flow %d packet length %d", id, flits)
	}
	g.flows[id].PacketFlits = flits
	return nil
}

// ValidCore reports whether id names an existing core.
func (g *Graph) ValidCore(id CoreID) bool {
	return id >= 0 && int(id) < len(g.cores)
}

// NumCores reports the number of cores.
func (g *Graph) NumCores() int { return len(g.cores) }

// NumFlows reports the number of flows.
func (g *Graph) NumFlows() int { return len(g.flows) }

// Core returns the core with the given ID; it panics on a bad ID.
func (g *Graph) Core(id CoreID) Core {
	if !g.ValidCore(id) {
		panic(fmt.Sprintf("traffic: unknown core %d", id))
	}
	return g.cores[id]
}

// Flow returns the flow with the given ID; it panics on a bad ID.
func (g *Graph) Flow(id int) Flow {
	if id < 0 || id >= len(g.flows) {
		panic(fmt.Sprintf("traffic: unknown flow %d", id))
	}
	return g.flows[id]
}

// Cores returns a copy of the core list.
func (g *Graph) Cores() []Core {
	return append([]Core(nil), g.cores...)
}

// Flows returns a copy of the flow list in ID order.
func (g *Graph) Flows() []Flow {
	return append([]Flow(nil), g.flows...)
}

// TotalBandwidth sums the bandwidth of all flows.
func (g *Graph) TotalBandwidth() float64 {
	total := 0.0
	for _, f := range g.flows {
		total += f.Bandwidth
	}
	return total
}

// BandwidthBetween returns the summed flow bandwidth from core a to b.
func (g *Graph) BandwidthBetween(a, b CoreID) float64 {
	total := 0.0
	for _, f := range g.flows {
		if f.Src == a && f.Dst == b {
			total += f.Bandwidth
		}
	}
	return total
}

// OutDegree returns the number of distinct destinations core id sends to.
func (g *Graph) OutDegree(id CoreID) int {
	seen := map[CoreID]bool{}
	for _, f := range g.flows {
		if f.Src == id {
			seen[f.Dst] = true
		}
	}
	return len(seen)
}

// Validate checks structural invariants: endpoints exist, no self-flows,
// positive finite bandwidths with a finite total, positive packet
// lengths, dense flow IDs.
func (g *Graph) Validate() error {
	for i, f := range g.flows {
		if f.ID != i {
			return fmt.Errorf("traffic %q: flow IDs not dense at %d", g.Name, i)
		}
		if !g.ValidCore(f.Src) || !g.ValidCore(f.Dst) {
			return fmt.Errorf("traffic %q: flow %d has unknown endpoint", g.Name, f.ID)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("traffic %q: flow %d is a self-flow", g.Name, f.ID)
		}
		if !finite(f.Bandwidth) {
			return fmt.Errorf("traffic %q: flow %d bandwidth %v is not finite: %w", g.Name, f.ID, f.Bandwidth, nocerr.ErrInvalidInput)
		}
		if f.Bandwidth <= 0 {
			return fmt.Errorf("traffic %q: flow %d bandwidth %f", g.Name, f.ID, f.Bandwidth)
		}
		if f.PacketFlits < 1 {
			return fmt.Errorf("traffic %q: flow %d packet length %d", g.Name, f.ID, f.PacketFlits)
		}
	}
	// Routing divides link loads by the total: an infinite total drops
	// the load term, and a link load that overflows too makes a cost NaN.
	if total := g.TotalBandwidth(); !finite(total) {
		return fmt.Errorf("traffic %q: total bandwidth %v is not finite: %w", g.Name, total, nocerr.ErrInvalidInput)
	}
	return nil
}

// finite reports whether bw is neither NaN nor infinite.
func finite(bw float64) bool { return !math.IsNaN(bw) && !math.IsInf(bw, 0) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		Name:  g.Name,
		cores: append([]Core(nil), g.cores...),
		flows: append([]Flow(nil), g.flows...),
	}
}

// CommMatrix returns the core-to-core bandwidth matrix, useful to the
// partitioner in internal/synth.
func (g *Graph) CommMatrix() [][]float64 {
	n := len(g.cores)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, f := range g.flows {
		m[f.Src][f.Dst] += f.Bandwidth
	}
	return m
}

// FlowsSortedByBandwidth returns flow IDs sorted by descending bandwidth,
// ties broken by ascending ID; synthesis routes heavy flows first.
func (g *Graph) FlowsSortedByBandwidth() []int {
	ids := make([]int, len(g.flows))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := g.flows[ids[a]], g.flows[ids[b]]
		if fa.Bandwidth != fb.Bandwidth {
			return fa.Bandwidth > fb.Bandwidth
		}
		return fa.ID < fb.ID
	})
	return ids
}
