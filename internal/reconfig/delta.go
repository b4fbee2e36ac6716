package reconfig

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Delta is the typed report of one committed reconfiguration: what a
// fault event changed relative to the design it was applied to. It is
// the payload of the reconfig_delta event, the JSON `nocexp reconfigure
// -delta` writes, and the body the /v1/reconfigure job returns. All
// fields are plain JSON types so the report round-trips byte-identically
// (pinned by FuzzReconfigDelta).
type Delta struct {
	// Fault is the link the event retired.
	Fault int `json:"fault"`
	// FlowsMoved lists, ascending, every flow whose candidate set
	// changed — the flows displaced by the fault plus any the removal
	// replay rerouted onto new VCs.
	FlowsMoved []int `json:"flows_moved"`
	// PathsBefore/PathsAfter count total candidate paths across flows.
	PathsBefore int `json:"paths_before"`
	PathsAfter  int `json:"paths_after"`
	// VCsAdded is the replay's own additions; TotalExtraVCs is the
	// design's cumulative extra-VC count after commit.
	VCsAdded      int `json:"vcs_added"`
	TotalExtraVCs int `json:"total_extra_vcs"`
	// LinksRetired lists links that carried at least one candidate path
	// before the event and none after (the faulted link, when used, plus
	// any links the reroutes abandoned), ascending.
	LinksRetired []int `json:"links_retired"`
	// Iterations counts replay cycle breaks; Breaks logs them in order.
	Iterations int          `json:"iterations"`
	Breaks     []DeltaBreak `json:"breaks"`
	// Acyclic is the committed design's union-CDG verdict (always true
	// for a committed delta; recorded so the report is self-contained).
	Acyclic bool `json:"acyclic"`
	// Downtime is the simulator-derived estimate of the transition cost.
	Downtime Downtime `json:"downtime"`
}

// DeltaBreak is one replay cycle break in report form: real flow IDs,
// plain channel pairs.
type DeltaBreak struct {
	Direction   string         `json:"direction"`
	EdgePos     int            `json:"edge_pos"`
	Cost        int            `json:"cost"`
	CycleLen    int            `json:"cycle_len"`
	NewChannels []DeltaChannel `json:"new_channels"`
	Flows       []int          `json:"flows"`
}

// DeltaChannel is a (link, VC) pair in report form.
type DeltaChannel struct {
	Link int `json:"link"`
	VC   int `json:"vc"`
}

// Downtime estimates the reconfiguration's service interruption: a drain
// simulation of the committed design under a witness workload that
// saturates the moved flows, measuring cycles until the last moved
// flow's worm drains. Simulated is false when the caller skipped the
// estimate (Options.SkipSim) or no flow moved.
type Downtime struct {
	Cycles     int64 `json:"cycles"`
	Drained    bool  `json:"drained"`
	Deadlocked bool  `json:"deadlocked"`
	Simulated  bool  `json:"simulated"`
}

// normalize replaces nil slices with empty ones so a Delta marshals
// identically whether it was computed or round-tripped through JSON.
func (d *Delta) normalize() {
	if d.FlowsMoved == nil {
		d.FlowsMoved = []int{}
	}
	if d.LinksRetired == nil {
		d.LinksRetired = []int{}
	}
	if d.Breaks == nil {
		d.Breaks = []DeltaBreak{}
	}
	for i := range d.Breaks {
		if d.Breaks[i].NewChannels == nil {
			d.Breaks[i].NewChannels = []DeltaChannel{}
		}
		if d.Breaks[i].Flows == nil {
			d.Breaks[i].Flows = []int{}
		}
	}
}

// MarshalJSON encodes the delta with normalized (never-null) slices.
func (d *Delta) MarshalJSON() ([]byte, error) {
	d.normalize()
	type plain Delta
	return json.MarshalIndent((*plain)(d), "", "  ")
}

// UnmarshalJSON decodes the schema produced by MarshalJSON.
func (d *Delta) UnmarshalJSON(data []byte) error {
	type plain Delta
	if err := json.Unmarshal(data, (*plain)(d)); err != nil {
		return fmt.Errorf("reconfig: %w: %w", nocerr.ErrInvalidInput, err)
	}
	d.normalize()
	return nil
}

// Write serializes the delta as JSON to w.
func (d *Delta) Write(w io.Writer) error {
	data, err := d.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// deltaBreaks converts replay break records (pseudo-flow reroute IDs)
// into report form with real flow IDs.
func deltaBreaks(breaks []core.BreakRecord, refs []route.PathRef) []DeltaBreak {
	out := make([]DeltaBreak, 0, len(breaks))
	for _, b := range breaks {
		db := DeltaBreak{
			Direction:   b.Direction.String(),
			EdgePos:     b.EdgePos,
			Cost:        b.Cost,
			CycleLen:    len(b.Cycle),
			NewChannels: make([]DeltaChannel, 0, len(b.NewChannels)),
			Flows:       realFlowIDs(b.Reroutes, refs),
		}
		for _, ch := range b.NewChannels {
			db.NewChannels = append(db.NewChannels, DeltaChannel{Link: int(ch.Link), VC: ch.VC})
		}
		out = append(out, db)
	}
	return out
}

// realFlowIDs maps pseudo-flow IDs through refs to deduplicated
// ascending real flow IDs (IDs out of refs range pass through, matching
// core's translation).
func realFlowIDs(pseudo []int, refs []route.PathRef) []int {
	seen := make(map[int]bool, len(pseudo))
	out := make([]int, 0, len(pseudo))
	for _, p := range pseudo {
		f := p
		if p >= 0 && p < len(refs) {
			f = refs[p].FlowID
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Ints(out)
	return out
}

// linkPathCounts tallies candidate paths per physical link.
func linkPathCounts(s *route.RouteSet) map[topology.LinkID]int {
	counts := make(map[topology.LinkID]int)
	for f := 0; f < s.NumFlows(); f++ {
		for _, p := range s.Paths(f) {
			for _, c := range p {
				counts[c.Link]++
			}
		}
	}
	return counts
}
