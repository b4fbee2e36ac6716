package reconfig

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Reconfiguration stages, in state-machine order (DESIGN.md §9):
// a fault event moves the state running → rerouting → replaying →
// simulating → committed, or to rolled_back from any middle stage.
const (
	StageRerouting  = "rerouting"
	StageReplaying  = "replaying"
	StageSimulating = "simulating"
	StageCommitted  = "committed"
	StageRolledBack = "rolled_back"
)

// Options parameterizes one fault event.
type Options struct {
	// VCLimit bounds the VCs the replay may add (0 = unlimited);
	// MaxIterations bounds its cycle breaks; Selection and Policy pick
	// cycles and break directions exactly as in core.Options.
	VCLimit       int
	MaxIterations int
	Selection     core.CycleSelection
	Policy        core.DirectionPolicy
	// OnStage observes state-machine transitions; OnBreak observes each
	// replay break with real flow IDs.
	OnStage func(stage string, fault topology.LinkID)
	OnBreak func(core.BreakRecord)
	// SkipSim omits the downtime estimate (benchmarks, smoke paths).
	SkipSim bool
	// SimCycles is the downtime simulation horizon. Default 100000.
	SimCycles int64
}

func (o Options) simCycles() int64 {
	if o.SimCycles > 0 {
		return o.SimCycles
	}
	return 100000
}

// State is a live reconfigurable design: the Design plus the removal
// machinery kept warm between fault events — the flattened pseudo-flow
// table, the pseudo-flow → (flow, path) mapping, and the incremental
// CDG the next replay resumes from. Not safe for concurrent use; the
// serve layer serializes events per job.
type State struct {
	design *Design
	// tab is the live flattened table: one pseudo-flow per candidate
	// path, aligned with the CDG's edge attribution. refs maps pseudo →
	// real flow; dead marks pseudo slots whose flow now has fewer
	// candidates than it once did (slots are never reused — pseudo-flow
	// identity must stay stable across events, new candidates append).
	tab  *route.Table
	refs []route.PathRef
	dead []bool
	// m is the CDG of the committed design and tab, or nil after a
	// rolled-back event, which leaves it half-mutated; the next event
	// rebuilds it. A rebuilt graph picks the cycles the maintained one
	// would (cdg's determinism contract), so the replay is the same.
	m *cdg.Incremental
}

// NewState wraps a design for online reconfiguration. The design is
// deep-copied; the caller's copy never changes. Fails with ErrCyclicCDG
// if the design's union CDG is not acyclic (it was not removed).
func NewState(d *Design) (*State, error) {
	d = d.Clone()
	tab, refs := d.Routes.Flatten()
	m, err := cdg.BuildIncremental(d.Topology, tab)
	if err != nil {
		return nil, err
	}
	if !m.Acyclic() {
		return nil, fmt.Errorf("%w: design CDG cyclic; run removal before reconfiguring", nocerr.ErrCyclicCDG)
	}
	return &State{
		design: d,
		tab:    tab,
		refs:   refs,
		dead:   make([]bool, len(refs)),
		m:      m,
	}, nil
}

// Design returns the current committed design. Callers must treat it as
// read-only; ApplyFault swaps it wholesale on commit.
func (s *State) Design() *Design { return s.design }

// ApplyFault applies one link-fault event to the live design: reroute
// the displaced flows under the design's own turn model (BFS escape
// included), replay the removal from the existing VC assignment, verify,
// estimate downtime, and commit — or roll everything back, leaving the
// design byte-identical to before the call. The returned Delta describes
// the committed change.
func (s *State) ApplyFault(ctx context.Context, link topology.LinkID, opts Options) (*Delta, error) {
	if int(link) < 0 || int(link) >= s.design.Topology.NumLinks() {
		return nil, fmt.Errorf("reconfig: no link %d in design: %w", link, nocerr.ErrNotFound)
	}
	if s.design.Topology.Faulted(link) {
		return nil, fmt.Errorf("reconfig: link %d already faulted: %w", link, nocerr.ErrInvalidInput)
	}
	stage := func(st string) {
		if opts.OnStage != nil {
			opts.OnStage(st, link)
		}
	}

	// Work on copies; the committed state is only swapped in at the end.
	// The CDG is the one exception — it is mutated in place (that is the
	// point of warm-starting) and dropped on any error.
	if s.m == nil {
		m, err := cdg.BuildIncremental(s.design.Topology, s.tab)
		if err != nil {
			return nil, err
		}
		s.m = m
	}
	workTop := s.design.Topology.Clone()
	if err := workTop.Fault(link); err != nil {
		return nil, err
	}
	s.m.Rebind(workTop)
	workTab := s.tab.Clone()
	workRefs := append([]route.PathRef(nil), s.refs...)
	workDead := append([]bool(nil), s.dead...)
	rollback := func() {
		s.m = nil
		stage(StageRolledBack)
	}

	affected := s.design.Routes.FlowsThrough(link)
	stage(StageRerouting)
	regen, err := route.RegenerateFlows(workTop, s.design.Traffic, s.design.Grid, s.design.Model, s.design.MaxPaths, affected)
	if err != nil {
		rollback()
		return nil, err
	}

	// Splice the regenerated candidates in: pair each affected flow's
	// live pseudo slots with its new paths index-wise, emptying surplus
	// slots and appending fresh ones, mirroring every change into the
	// CDG as an edge delta.
	livePseudo := make(map[int][]int, len(affected))
	for p, ref := range workRefs {
		if !workDead[p] {
			livePseudo[ref.FlowID] = append(livePseudo[ref.FlowID], p)
		}
	}
	for _, f := range affected {
		oldPs := livePseudo[f]
		newPaths := regen[f]
		n := len(oldPs)
		if len(newPaths) > n {
			n = len(newPaths)
		}
		for i := 0; i < n; i++ {
			switch {
			case i < len(oldPs) && i < len(newPaths):
				p := oldPs[i]
				old := workTab.Route(p).Channels
				if err := s.m.ApplyReroute(cdg.Reroute{FlowID: p, Old: old, New: newPaths[i]}); err != nil {
					rollback()
					return nil, err
				}
				workTab.Set(p, append([]topology.Channel(nil), newPaths[i]...))
			case i < len(oldPs):
				p := oldPs[i]
				old := workTab.Route(p).Channels
				if err := s.m.ApplyReroute(cdg.Reroute{FlowID: p, Old: old, New: nil}); err != nil {
					rollback()
					return nil, err
				}
				workTab.Set(p, nil)
				workDead[p] = true
			default:
				p := len(workRefs)
				workRefs = append(workRefs, route.PathRef{FlowID: f, Index: i})
				workDead = append(workDead, false)
				if err := s.m.ApplyReroute(cdg.Reroute{FlowID: p, Old: nil, New: newPaths[i]}); err != nil {
					rollback()
					return nil, err
				}
				workTab.Set(p, append([]topology.Channel(nil), newPaths[i]...))
			}
		}
	}

	stage(StageReplaying)
	coreOpts := core.Options{
		VCLimit:       opts.VCLimit,
		MaxIterations: opts.MaxIterations,
		Selection:     opts.Selection,
		Policy:        opts.Policy,
	}
	if opts.OnBreak != nil {
		refsNow := workRefs
		coreOpts.OnBreak = func(rec core.BreakRecord) {
			rec.Reroutes = route.RealFlows(rec.Reroutes, refsNow)
			opts.OnBreak(rec)
		}
	}
	res, err := core.ResumeContext(ctx, workTop, workTab, s.m, coreOpts)
	if err != nil {
		rollback()
		return nil, err
	}

	newSet := route.NewRouteSet(s.design.Traffic.NumFlows())
	for p, ref := range workRefs {
		if workDead[p] {
			continue
		}
		newSet.AppendPath(ref.FlowID, workTab.Route(p).Channels)
	}
	if err := newSet.Validate(workTop, s.design.Traffic); err != nil {
		rollback()
		return nil, fmt.Errorf("reconfig: post-replay set invalid: %w", err)
	}

	delta := s.buildDelta(link, workTop, newSet, res, workRefs)

	if !opts.SkipSim && len(delta.FlowsMoved) > 0 {
		stage(StageSimulating)
		dt, err := estimateDowntime(ctx, workTop, s.design.Traffic, newSet, delta.FlowsMoved, opts.simCycles())
		if err != nil {
			rollback()
			return nil, err
		}
		if dt.Deadlocked {
			rollback()
			return nil, fmt.Errorf("%w: post-reconfig witness simulation deadlocked", nocerr.ErrCyclicCDG)
		}
		delta.Downtime = dt
	}

	s.design.Topology = workTop
	s.design.Routes = newSet
	s.tab = workTab
	s.refs = workRefs
	s.dead = workDead
	stage(StageCommitted)
	return delta, nil
}

// buildDelta assembles the report from the replay result and the
// before/after candidate sets.
func (s *State) buildDelta(link topology.LinkID, workTop *topology.Topology, newSet *route.RouteSet, res *core.Result, refs []route.PathRef) *Delta {
	moved := make(map[int]bool)
	for f := 0; f < s.design.Traffic.NumFlows(); f++ {
		if !slices.EqualFunc(s.design.Routes.Paths(f), newSet.Paths(f), slices.Equal[[]topology.Channel]) {
			moved[f] = true
		}
	}
	flowsMoved := make([]int, 0, len(moved))
	for f := range moved {
		flowsMoved = append(flowsMoved, f)
	}
	sort.Ints(flowsMoved)

	before := linkPathCounts(s.design.Routes)
	after := linkPathCounts(newSet)
	retired := []int{}
	for l, n := range before {
		if n > 0 && after[l] == 0 {
			retired = append(retired, int(l))
		}
	}
	sort.Ints(retired)

	d := &Delta{
		Fault:         int(link),
		FlowsMoved:    flowsMoved,
		PathsBefore:   s.design.Routes.TotalPaths(),
		PathsAfter:    newSet.TotalPaths(),
		VCsAdded:      res.AddedVCs,
		TotalExtraVCs: workTop.ExtraVCs(),
		LinksRetired:  retired,
		Iterations:    res.Iterations,
		Breaks:        deltaBreaks(res.Breaks, refs),
		Acyclic:       true,
	}
	d.normalize()
	return d
}

// estimateDowntime runs a drain simulation of the committed design under
// a witness workload that saturates the moved flows (one 16-flit packet
// each at full bandwidth) while background flows inject negligibly: the
// cycle count until the last moved flow's worm drains is the downtime
// estimate. A deadlock here would mean the replay's acyclicity proof and
// the simulator disagree — the caller rolls back and errors.
func estimateDowntime(ctx context.Context, top *topology.Topology, tr *traffic.Graph, set *route.RouteSet, moved []int, maxCycles int64) (Downtime, error) {
	isMoved := make(map[int]bool, len(moved))
	for _, f := range moved {
		isMoved[f] = true
	}
	witness := traffic.NewGraph(tr.Name + "_reconfig_witness")
	for _, c := range tr.Cores() {
		witness.AddCore(c.Name)
	}
	for _, f := range tr.Flows() {
		bw := 0.001
		if isMoved[f.ID] {
			bw = 100
		}
		id, err := witness.AddFlow(f.Src, f.Dst, bw)
		if err != nil {
			return Downtime{}, fmt.Errorf("reconfig: witness workload: %w", err)
		}
		flits := 4
		if isMoved[f.ID] {
			flits = 16
		}
		if err := witness.SetPacketFlits(id, flits); err != nil {
			return Downtime{}, fmt.Errorf("reconfig: witness workload: %w", err)
		}
	}
	sim, err := wormhole.NewAdaptive(top, witness, set, wormhole.Config{
		MaxCycles:      maxCycles,
		PacketsPerFlow: 1,
	})
	if err != nil {
		return Downtime{}, err
	}
	stats, err := sim.RunContext(ctx)
	if err != nil {
		return Downtime{}, err
	}
	return Downtime{
		Cycles:     stats.Cycles,
		Drained:    stats.Drained,
		Deadlocked: stats.Deadlocked,
		Simulated:  true,
	}, nil
}
