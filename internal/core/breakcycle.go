package core

import (
	"fmt"
	"slices"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// BreakRecord documents one executed cycle break for result reporting and
// the experiment harness.
type BreakRecord struct {
	Cycle       []topology.Channel // the cycle that was broken
	Direction   Direction          // chosen break direction
	EdgePos     int                // broken dependency: Cycle[EdgePos]→Cycle[(EdgePos+1)%n]
	Cost        int                // Algorithm 2's estimate (max duplicate-chain length)
	NewChannels []topology.Channel // channels actually added (usually Cost of them)
	Reroutes    []int              // flows moved onto the new channels, ascending
}

// breakCycle implements BreakCycleForward / BreakCycleBackward: it
// duplicates the necessary channel vertices (provisioning one new VC per
// duplicated channel on the same physical link) and reroutes every flow
// that creates the broken dependency onto the duplicates. Duplicates are
// shared among the rerouted flows, which is what makes the paper's cost —
// the maximum chain length over those flows — the number of channels
// added in the common (chord-free) case.
//
// The returned reroutes pair each moved flow's old and new channel
// sequence so the caller can maintain an incremental CDG without
// rescanning the route table. A non-nil flows restricts the scan for the
// broken dependency's creators to that candidate subset (ascending IDs;
// see chooseBreak for the equivalence argument).
func breakCycle(top *topology.Topology, tab *route.Table, cycle []topology.Channel,
	edge int, dir Direction, cost int, flows []int) (*BreakRecord, []cdg.Reroute, error) {

	// Find the flows creating the broken dependency and the chain of
	// route positions each must vacate.
	type chain struct {
		flowID int
		lo, hi int
	}
	var chains []chain
	from, to := cycle[edge], cycle[(edge+1)%len(cycle)]
	k := newCostKernel(cycle)
	for _, r := range scanRoutes(tab, flows) {
		for i := 0; i+1 < len(r.Channels); i++ {
			if r.Channels[i] != from || r.Channels[i+1] != to {
				continue
			}
			k.positions(r.Channels)
			lo, hi := chainBounds(dir, k.pos, i)
			chains = append(chains, chain{flowID: r.FlowID, lo: lo, hi: hi})
			break // a route cannot repeat a channel, so the edge occurs once
		}
	}
	if len(chains) == 0 {
		return nil, nil, fmt.Errorf("core: dependency %v→%v not created by any flow", from, to)
	}

	// Duplicate each distinct chain channel once; rerouted flows share the
	// duplicates (the paper reroutes "the flows", plural, onto "the new
	// vertices"). orig[j] is the channel rec.NewChannels[j] duplicates.
	var orig []topology.Channel
	rec := &BreakRecord{
		Cycle:     append([]topology.Channel(nil), cycle...),
		Direction: dir,
		EdgePos:   edge,
		Cost:      cost,
	}
	for _, c := range chains {
		for _, ch := range tab.Route(c.flowID).Channels[c.lo : c.hi+1] {
			if slices.Contains(orig, ch) {
				continue
			}
			vc, err := top.AddVC(ch.Link)
			if err != nil {
				return nil, nil, fmt.Errorf("core: duplicating %v: %w", ch, err)
			}
			orig = append(orig, ch)
			rec.NewChannels = append(rec.NewChannels, topology.Chan(ch.Link, vc))
		}
	}
	reroutes := make([]cdg.Reroute, 0, len(chains))
	for _, c := range chains {
		// The table drops the old channel slice for the new one, so the
		// reroute can keep it unchanged without a copy.
		old := tab.Route(c.flowID).Channels
		channels := append([]topology.Channel(nil), old...)
		for i := c.lo; i <= c.hi; i++ {
			channels[i] = rec.NewChannels[slices.Index(orig, channels[i])]
		}
		tab.Set(c.flowID, channels)
		rec.Reroutes = append(rec.Reroutes, c.flowID)
		reroutes = append(reroutes, cdg.Reroute{FlowID: c.flowID, Old: old, New: channels})
	}
	return rec, reroutes, nil
}
