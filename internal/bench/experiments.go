// Package bench regenerates the paper's evaluation: Figure 8 (VC overhead
// vs. switch count on D26_media), Figure 9 (same on D36_8), Figure 10
// (normalized power across six benchmarks at 14 switches), and the
// scalar claims of Section 5 (average VC reduction, area saving, power
// saving, overhead vs. a no-removal design, runtime). Each experiment is
// a plain function returning rows, plus table writers for human-readable
// output; bench_test.go at the repository root wires them into testing.B
// benchmarks, and cmd/nocexp prints them.
package bench

import (
	"fmt"
	"time"

	"github.com/nocdr/nocdr/internal/bench/runner"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/power"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Fig8SwitchCounts is the switch-count sweep of Figure 8 (x-axis 5–25).
var Fig8SwitchCounts = []int{5, 8, 11, 14, 17, 20, 23, 25}

// Fig9SwitchCounts is the switch-count sweep of Figure 9 (x-axis 10–35).
var Fig9SwitchCounts = []int{10, 14, 18, 22, 26, 30, 35}

// Fig10SwitchCount is the design point of Figure 10 ("topologies with 14
// switches").
const Fig10SwitchCount = 14

// SweepPoint is one x-position of Figure 8 or 9: the number of VCs each
// method adds on the topology synthesized for SwitchCount switches.
type SweepPoint struct {
	SwitchCount int
	Links       int
	MaxRouteLen int
	// RemovalVCs is the solid line: VCs added by the paper's algorithm.
	RemovalVCs int
	// OrderingVCs is the dotted line: VCs added by resource ordering.
	OrderingVCs int
	// RemovalBreaks is the number of CDG cycles broken.
	RemovalBreaks int
	// RemovalTime is the wall time of the removal pass.
	RemovalTime time.Duration
}

// VCSweep regenerates a Figure 8/9-style curve for one benchmark: for
// each switch count it synthesizes an application-specific topology,
// runs the deadlock-removal algorithm and the resource-ordering baseline
// on identical inputs, and reports both VC overheads. It is the serial
// convenience wrapper around the runner package's per-point evaluation;
// large grids go through runner.Run instead.
func VCSweep(g *traffic.Graph, switchCounts []int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, s := range switchCounts {
		if s > g.NumCores() {
			continue // cannot have more switches than cores
		}
		p, err := runner.Evaluate(g, s)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		out = append(out, SweepPoint{
			SwitchCount:   s,
			Links:         p.Links,
			MaxRouteLen:   p.MaxRouteLen,
			RemovalVCs:    p.RemovalVCs,
			OrderingVCs:   p.OrderingVCs,
			RemovalBreaks: p.Breaks,
			RemovalTime:   p.RemovalTime,
		})
	}
	return out, nil
}

// Figure8 runs the D26_media sweep of Figure 8.
func Figure8() ([]SweepPoint, error) {
	return VCSweep(traffic.D26Media(), Fig8SwitchCounts)
}

// Figure9 runs the D36_8 sweep of Figure 9.
func Figure9() ([]SweepPoint, error) {
	return VCSweep(traffic.D36(8), Fig9SwitchCounts)
}

// PowerRow is one benchmark bar group of Figure 10 plus the area numbers
// behind the paper's 66% claim and the no-removal baseline behind the
// <5% overhead claim.
type PowerRow struct {
	Benchmark string

	// Power (mW) for: the unmodified design (deadlocks not removed), the
	// removal algorithm's design, and the resource-ordering design.
	NoRemovalMW float64
	RemovalMW   float64
	OrderingMW  float64

	// Area (mm²) for the same three designs.
	NoRemovalMM2 float64
	RemovalMM2   float64
	OrderingMM2  float64

	// VCs added by each method.
	RemovalVCs  int
	OrderingVCs int
}

// NormalizedOrderingPower is Figure 10's y-value: ordering power relative
// to the removal algorithm's (removal = 1.0).
func (r PowerRow) NormalizedOrderingPower() float64 {
	if r.RemovalMW == 0 {
		return 0
	}
	return r.OrderingMW / r.RemovalMW
}

// Figure10 evaluates power and area for every benchmark at the paper's
// 14-switch design point under the shared ORION-style model.
func Figure10() ([]PowerRow, error) {
	return PowerComparison(Fig10SwitchCount)
}

// PowerComparison is Figure 10 generalized to any switch count.
func PowerComparison(switchCount int) ([]PowerRow, error) {
	params := power.DefaultParams()
	var rows []PowerRow
	for _, g := range traffic.AllBenchmarks() {
		des, err := synth.Synthesize(g, synth.Options{SwitchCount: switchCount})
		if err != nil {
			return nil, fmt.Errorf("bench: synthesize %s: %w", g.Name, err)
		}
		rm, err := core.Remove(des.Topology, des.Routes, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: remove %s: %w", g.Name, err)
		}
		ro, err := ordering.Apply(des.Topology, des.Routes, ordering.HopIndex)
		if err != nil {
			return nil, fmt.Errorf("bench: ordering %s: %w", g.Name, err)
		}
		row := PowerRow{
			Benchmark:   g.Name,
			RemovalVCs:  rm.AddedVCs,
			OrderingVCs: ro.AddedVCs,
		}
		// The ordering design's hardware provisions every link with the
		// full class-layer set (see ordering.Result.UniformTopology);
		// removal provisions only the channels it added.
		roHW := ro.UniformTopology()
		base, err := power.NoCPower(params, des.Topology, g, des.Routes)
		if err != nil {
			return nil, err
		}
		rmP, err := power.NoCPower(params, rm.Topology, g, rm.Routes)
		if err != nil {
			return nil, err
		}
		roP, err := power.NoCPower(params, roHW, g, ro.Routes)
		if err != nil {
			return nil, err
		}
		row.NoRemovalMW = base.TotalMW
		row.RemovalMW = rmP.TotalMW
		row.OrderingMW = roP.TotalMW
		row.NoRemovalMM2 = power.MM2(power.NoCArea(params, des.Topology).TotalUM2)
		row.RemovalMM2 = power.MM2(power.NoCArea(params, rm.Topology).TotalUM2)
		row.OrderingMM2 = power.MM2(power.NoCArea(params, roHW).TotalUM2)
		rows = append(rows, row)
	}
	return rows, nil
}

// Summary aggregates the paper's Section 5 scalar claims.
type Summary struct {
	// AvgVCReduction is the mean of 1 − removalVCs/orderingVCs across all
	// benchmark sweeps (the paper reports 88% on average).
	AvgVCReduction float64
	// AvgAreaSaving is the mean of 1 − removalArea/orderingArea at the
	// Figure 10 design point (paper: 66%).
	AvgAreaSaving float64
	// AvgPowerSaving is the mean of 1 − removalPower/orderingPower at the
	// Figure 10 design point (paper: 8.6%).
	AvgPowerSaving float64
	// AvgPowerOverheadVsNoRemoval is the mean removal power overhead
	// relative to the unmodified (deadlock-prone) design (paper: below
	// 5%); Max* are the worst single benchmarks.
	AvgPowerOverheadVsNoRemoval float64
	MaxPowerOverheadVsNoRemoval float64
	// AvgAreaOverheadVsNoRemoval is the analogous area overhead
	// (paper: below 5%).
	AvgAreaOverheadVsNoRemoval float64
	MaxAreaOverheadVsNoRemoval float64
}

// Summarize computes the Summary from a power comparison and one or more
// VC sweeps.
func Summarize(rows []PowerRow, sweeps ...[]SweepPoint) Summary {
	var sum Summary
	n := 0
	for _, sweep := range sweeps {
		for _, p := range sweep {
			if p.OrderingVCs == 0 {
				continue // both methods free: no reduction to speak of
			}
			sum.AvgVCReduction += 1 - float64(p.RemovalVCs)/float64(p.OrderingVCs)
			n++
		}
	}
	if n > 0 {
		sum.AvgVCReduction /= float64(n)
	}
	for _, r := range rows {
		sum.AvgAreaSaving += 1 - r.RemovalMM2/r.OrderingMM2
		sum.AvgPowerSaving += 1 - r.RemovalMW/r.OrderingMW
		po := power.RelativeOverhead(r.RemovalMW, r.NoRemovalMW)
		ao := power.RelativeOverhead(r.RemovalMM2, r.NoRemovalMM2)
		sum.AvgPowerOverheadVsNoRemoval += po
		sum.AvgAreaOverheadVsNoRemoval += ao
		if po > sum.MaxPowerOverheadVsNoRemoval {
			sum.MaxPowerOverheadVsNoRemoval = po
		}
		if ao > sum.MaxAreaOverheadVsNoRemoval {
			sum.MaxAreaOverheadVsNoRemoval = ao
		}
	}
	if len(rows) > 0 {
		sum.AvgAreaSaving /= float64(len(rows))
		sum.AvgPowerSaving /= float64(len(rows))
		sum.AvgPowerOverheadVsNoRemoval /= float64(len(rows))
		sum.AvgAreaOverheadVsNoRemoval /= float64(len(rows))
	}
	return sum
}

// DeadlockDemo runs the simulation validation (beyond the paper's own
// evaluation): the synthesized design is simulated at saturation before
// and after removal. Pre-removal deadlock is only *possible* when the
// CDG is cyclic; post-removal deadlock must never happen.
type DeadlockDemo struct {
	Benchmark       string
	SwitchCount     int
	CyclicBefore    bool
	DeadlockBefore  bool
	DeadlockAfter   bool
	DeliveredAfter  int64
	AvgLatencyAfter float64
}

// RunDeadlockDemo simulates one benchmark design at saturation before and
// after deadlock removal. Buffers are kept shallow (2 flits) so cyclic
// waits form within a reasonable horizon when the CDG permits them.
func RunDeadlockDemo(g *traffic.Graph, switchCount int, cycles int64) (*DeadlockDemo, error) {
	des, err := synth.Synthesize(g, synth.Options{SwitchCount: switchCount})
	if err != nil {
		return nil, err
	}
	return runDemo(g.Name, switchCount, des.Topology, g, des.Routes, cycles)
}

// RingWorkload builds the paper's Figure 1 design: the four-switch ring,
// its four cores/flows, and the paper's routes — the canonical cyclic-CDG
// workload used by demos and the extension studies.
func RingWorkload() (*topology.Topology, *traffic.Graph, *route.Table, error) {
	top := topology.New("fig1_ring")
	for i := 0; i < 4; i++ {
		sw := top.AddSwitch("")
		if err := top.AttachCore(i, sw); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(topology.SwitchID(i), topology.SwitchID((i+1)%4))
	}
	g := traffic.NewGraph("fig1_ring")
	for i := 0; i < 4; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, 3, 100)
	g.MustAddFlow(2, 0, 100)
	g.MustAddFlow(3, 1, 100)
	g.MustAddFlow(0, 2, 100)
	tab := route.NewTable(4)
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	tab.Set(0, ch(0, 1, 2))
	tab.Set(1, ch(2, 3))
	tab.Set(2, ch(3, 0))
	tab.Set(3, ch(0, 1))
	return top, g, tab, nil
}

// RunRingDemo runs the demo on the paper's own Figure 1 ring — the
// canonical design whose cyclic CDG deadlocks almost immediately.
func RunRingDemo(cycles int64) (*DeadlockDemo, error) {
	top, g, tab, err := RingWorkload()
	if err != nil {
		return nil, err
	}
	return runDemo("fig1_ring", 4, top, g, tab, cycles)
}

func runDemo(name string, switchCount int, top *topology.Topology, g *traffic.Graph,
	tab *route.Table, cycles int64) (*DeadlockDemo, error) {

	free, err := core.DeadlockFree(top, tab)
	if err != nil {
		return nil, err
	}
	demo := &DeadlockDemo{
		Benchmark:    name,
		SwitchCount:  switchCount,
		CyclicBefore: !free,
	}
	cfg := wormhole.Config{MaxCycles: cycles, LoadFactor: 1.0, Seed: 1, BufferDepth: 2}
	simBefore, err := wormhole.New(top, g, tab, cfg)
	if err != nil {
		return nil, err
	}
	stBefore, err := simBefore.Run()
	if err != nil {
		return nil, err
	}
	demo.DeadlockBefore = stBefore.Deadlocked

	rm, err := core.Remove(top, tab, core.Options{})
	if err != nil {
		return nil, err
	}
	simAfter, err := wormhole.New(rm.Topology, g, rm.Routes, cfg)
	if err != nil {
		return nil, err
	}
	stAfter, err := simAfter.Run()
	if err != nil {
		return nil, err
	}
	demo.DeadlockAfter = stAfter.Deadlocked
	demo.DeliveredAfter = stAfter.DeliveredPackets
	demo.AvgLatencyAfter = stAfter.AvgLatency()
	return demo, nil
}
