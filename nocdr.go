// Package nocdr removes routing deadlocks from wormhole flow-controlled
// Networks-on-Chip with custom topologies and static routes, implementing
// Seiculescu, Murali, Benini and De Micheli, "A Method to Remove Deadlocks
// in Networks-on-Chips with Wormhole Flow Control" (DATE 2010).
//
// Given a topology graph TG(S,L), a communication graph G(V,E) and one
// fixed route per flow, the library builds the channel dependency graph
// (CDG), and while the CDG is cyclic it breaks the smallest cycle at the
// cheapest dependency — duplicating the minimum chain of channel vertices
// as new virtual channels and rerouting the responsible flows onto them.
// An acyclic CDG makes the network provably deadlock-free under wormhole
// flow control (Dally & Towles).
//
// The package also ships everything the paper's evaluation needs: an
// application-specific topology synthesizer, the resource-ordering
// baseline, ORION-style power and area models, reconstructions of the six
// SoC benchmarks, and a flit-level wormhole simulator that demonstrates
// deadlocks before removal and their absence afterwards.
//
// Quick start — the context-first Session pipeline API:
//
//	s := nocdr.NewSession()
//	g, _ := nocdr.Benchmark("D26_media")
//	design, _ := s.Synthesize(ctx, g, nocdr.SynthOptions{SwitchCount: 14})
//	result, _ := s.RemoveDeadlocks(ctx, design.Topology, design.Routes)
//	fmt.Println("added VCs:", result.AddedVCs)
//
// Session methods accept a context.Context, stream progress Events (see
// WithProgress), respect budgets (WithVCLimit), and fail with typed
// sentinel errors (ErrCyclicCDG, ErrVCLimit, ErrCanceled) that support
// errors.Is/As. The pre-Session free functions below remain as thin
// deprecated wrappers; see MIGRATION.md for the one-to-one mapping.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package nocdr

import (
	"context"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/power"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/wormhole"
)

// Topology construction (the paper's Definition 1).
type (
	// Topology is the topology graph TG(S,L): switches joined by
	// unidirectional physical links, each carrying >= 1 virtual channels.
	Topology = topology.Topology
	// SwitchID identifies a switch.
	SwitchID = topology.SwitchID
	// LinkID identifies a physical link.
	LinkID = topology.LinkID
	// Channel is one virtual channel of one physical link — the resource
	// unit of the whole method (Definitions 3–4).
	Channel = topology.Channel
	// Switch is a vertex of the topology graph.
	Switch = topology.Switch
	// Link is a unidirectional physical link.
	Link = topology.Link
)

// Traffic modelling (the paper's Definition 2).
type (
	// TrafficGraph is the communication graph G(V,E).
	TrafficGraph = traffic.Graph
	// CoreID identifies an application core.
	CoreID = traffic.CoreID
	// Flow is one directed communication between cores.
	Flow = traffic.Flow
)

// Routing (the paper's Definition 3).
type (
	// RouteTable maps each flow to its ordered channel list.
	RouteTable = route.Table
	// Route is one flow's channel sequence.
	Route = route.Route
)

// Deadlock analysis and removal (the paper's contribution).
type (
	// CDG is the channel dependency graph (Definition 4).
	CDG = cdg.CDG
	// RemovalOptions configures the removal algorithm; the zero value is
	// the paper's configuration.
	RemovalOptions = core.Options
	// RemovalResult reports the removal outcome: modified topology and
	// routes, added VCs, and a log of every cycle break.
	RemovalResult = core.Result
	// BreakRecord documents one executed cycle break.
	BreakRecord = core.BreakRecord
	// CostTable is Algorithm 2's cost matrix (the paper's Table 1).
	CostTable = core.CostTable
	// Direction is a break direction (forward/backward, Figures 5–6).
	Direction = core.Direction
	// DirectionPolicy selects how Algorithm 1 chooses between the
	// forward and backward break (see WithPolicy).
	DirectionPolicy = core.DirectionPolicy
	// CycleSelection selects which CDG cycle Algorithm 1 attacks next
	// (see WithSelection).
	CycleSelection = core.CycleSelection
)

// Re-exported removal constants.
const (
	Forward  = core.Forward
	Backward = core.Backward

	// BestOfBoth compares forward and backward break costs and takes
	// the cheaper (the paper's policy); ForwardOnly/BackwardOnly exist
	// for ablations.
	BestOfBoth   = core.BestOfBoth
	ForwardOnly  = core.ForwardOnly
	BackwardOnly = core.BackwardOnly

	// SmallestFirst breaks the shortest CDG cycle first (the paper's
	// heuristic); FirstFound breaks an arbitrary deterministic cycle.
	SmallestFirst = core.SmallestFirst
	FirstFound    = core.FirstFound
)

// Baselines and models.
type (
	// OrderingScheme selects the resource-ordering class assignment.
	OrderingScheme = ordering.Scheme
	// OrderingResult reports the resource-ordering outcome.
	OrderingResult = ordering.Result
	// SynthOptions configures topology synthesis.
	SynthOptions = synth.Options
	// Design couples a synthesized topology with its routes.
	Design = synth.Result
	// PowerParams parameterizes the ORION-style power/area model.
	PowerParams = power.Params
	// PowerReport breaks NoC power into dynamic and leakage parts (mW).
	PowerReport = power.PowerReport
	// AreaReport breaks NoC area into per-switch contributions (µm²).
	AreaReport = power.AreaReport
)

// Re-exported resource-ordering schemes. HopIndex is the paper's
// baseline; the greedy variants are stronger and exist for ablations.
const (
	HopIndex   = ordering.HopIndex
	GreedyBFS  = ordering.GreedyBFS
	GreedyByID = ordering.GreedyByID
)

// Simulation.
type (
	// SimConfig parameterizes the wormhole simulator.
	SimConfig = wormhole.Config
	// SimStats is a simulation outcome, including deadlock reports.
	SimStats = wormhole.Stats
	// Simulator is the flit-level wormhole NoC simulator.
	Simulator = wormhole.Simulator
)

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology { return topology.New(name) }

// NewTraffic returns an empty named communication graph.
func NewTraffic(name string) *TrafficGraph { return traffic.NewGraph(name) }

// NewRouteTable returns a route table sized for n flows.
func NewRouteTable(n int) *RouteTable { return route.NewTable(n) }

// Chan constructs a Channel from a link and VC index.
func Chan(link LinkID, vc int) Channel { return topology.Chan(link, vc) }

// Benchmark returns one of the paper's SoC benchmarks by name; an
// unknown name fails with ErrNotFound. See BenchmarkNames.
func Benchmark(name string) (*TrafficGraph, error) {
	g, err := traffic.ByName(name)
	return g, wrapErr(err)
}

// BenchmarkNames lists the shipped benchmarks in the paper's Figure 10
// order: D26_media, D36_4, D36_6, D36_8, D35_bot, D38_tvo.
func BenchmarkNames() []string { return traffic.BenchmarkNames() }

// sessionFromRemovalOptions builds the Session equivalent of a legacy
// RemovalOptions value, so the deprecated wrappers stay byte-identical
// to the Session path (pinned by the differential tests). FullRebuild has
// no Session equivalent and is ignored, as it is everywhere.
func sessionFromRemovalOptions(opts RemovalOptions) *Session {
	return &Session{
		vcLimit:       opts.VCLimit,
		maxIterations: opts.MaxIterations,
		policy:        opts.Policy,
		selection:     opts.Selection,
		parallel:      1,
		onBreak:       opts.OnBreak,
	}
}

// Synthesize builds an application-specific topology and routes for a
// communication graph (substitute for the paper's reference [9]).
//
// Deprecated: use NewSession and (*Session).Synthesize, which accepts a
// context.Context.
func Synthesize(g *TrafficGraph, opts SynthOptions) (*Design, error) {
	return NewSession().Synthesize(context.Background(), g, opts)
}

// ComputeRoutes derives deterministic load-aware shortest-path routes for
// every flow on an existing topology with attached cores.
//
// Deprecated: use NewSession and (*Session).ComputeRoutes.
func ComputeRoutes(top *Topology, g *TrafficGraph) (*RouteTable, error) {
	return NewSession().ComputeRoutes(top, g)
}

// BuildCDG constructs the channel dependency graph for a routed topology.
//
// Deprecated: use NewSession and (*Session).BuildCDG.
func BuildCDG(top *Topology, tab *RouteTable) (*CDG, error) {
	return NewSession().BuildCDG(top, tab)
}

// DeadlockFree reports whether the routed topology's CDG is acyclic.
//
// Deprecated: use NewSession and (*Session).DeadlockFree.
func DeadlockFree(top *Topology, tab *RouteTable) (bool, error) {
	return NewSession().DeadlockFree(top, tab)
}

// RemoveDeadlocks runs the paper's Algorithm 1: it returns modified
// copies of the topology and routes whose CDG is acyclic, adding the
// minimum virtual channels its cost heuristic finds. Inputs are never
// mutated. opts.FullRebuild is ignored.
//
// Deprecated: use NewSession (WithPolicy, WithSelection, WithVCLimit,
// WithMaxIterations) and (*Session).RemoveDeadlocks, which accepts a
// context.Context and streams progress events.
func RemoveDeadlocks(top *Topology, tab *RouteTable, opts RemovalOptions) (*RemovalResult, error) {
	return sessionFromRemovalOptions(opts).RemoveDeadlocks(context.Background(), top, tab)
}

// ForwardCostTable computes Algorithm 2's forward cost table for a cycle
// (the paper's Table 1); useful for inspecting why a break was chosen.
//
// Deprecated: use NewSession and (*Session).CostTable with Forward.
func ForwardCostTable(cycle []Channel, tab *RouteTable) (*CostTable, error) {
	return NewSession().CostTable(Forward, cycle, tab)
}

// BackwardCostTable is ForwardCostTable's mirror (Algorithm 1 step 6).
//
// Deprecated: use NewSession and (*Session).CostTable with Backward.
func BackwardCostTable(cycle []Channel, tab *RouteTable) (*CostTable, error) {
	return NewSession().CostTable(Backward, cycle, tab)
}

// ApplyResourceOrdering runs the paper's comparison baseline on the same
// inputs RemoveDeadlocks takes.
//
// Deprecated: use NewSession and (*Session).ApplyResourceOrdering.
func ApplyResourceOrdering(top *Topology, tab *RouteTable, scheme OrderingScheme) (*OrderingResult, error) {
	return NewSession().ApplyResourceOrdering(top, tab, scheme)
}

// DefaultPowerParams returns the 65 nm-class model parameters used by the
// paper-reproduction experiments.
func DefaultPowerParams() PowerParams { return power.DefaultParams() }

// EstimatePower evaluates total NoC power (mW) for a routed workload.
func EstimatePower(p PowerParams, top *Topology, g *TrafficGraph, tab *RouteTable) (PowerReport, error) {
	return power.NoCPower(p, top, g, tab)
}

// EstimateArea evaluates total switch area (µm²) for a topology.
func EstimateArea(p PowerParams, top *Topology) AreaReport {
	return power.NoCArea(p, top)
}

// EstimatePowerPhysical prices the topology for a VC-less architecture
// where every extra channel is a parallel physical link — the paper's
// alternative realization ("it is also possible to add physical channels
// if the NoC architecture does not support VCs").
func EstimatePowerPhysical(p PowerParams, top *Topology, g *TrafficGraph, tab *RouteTable) (PowerReport, error) {
	return power.NoCPowerPhysical(p, top, g, tab)
}

// EstimateAreaPhysical is EstimateArea under the physical-channel
// realization.
func EstimateAreaPhysical(p PowerParams, top *Topology) AreaReport {
	return power.NoCAreaPhysical(p, top)
}

// NewSimulator builds a flit-level wormhole simulator for a routed
// workload.
//
// Deprecated: use NewSession and (*Session).NewSimulator.
func NewSimulator(top *Topology, g *TrafficGraph, tab *RouteTable, cfg SimConfig) (*Simulator, error) {
	return NewSession().NewSimulator(top, g, tab, cfg)
}

// Simulate is the one-shot convenience: build a simulator and run it.
//
// Deprecated: use NewSession and (*Session).Simulate, which accepts a
// context.Context and streams epoch progress events.
func Simulate(top *Topology, g *TrafficGraph, tab *RouteTable, cfg SimConfig) (*SimStats, error) {
	return NewSession().Simulate(context.Background(), top, g, tab, cfg)
}
