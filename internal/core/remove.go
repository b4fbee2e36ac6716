package core

import (
	"context"
	"fmt"

	"github.com/nocdr/nocdr/internal/cdg"
	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// Result reports what Remove did. Topology and Routes are modified deep
// copies; the inputs are never mutated.
type Result struct {
	Topology *topology.Topology
	Routes   *route.Table
	// AddedVCs is |L'|−|L|: the number of channels added to make the CDG
	// acyclic — the quantity the paper minimizes.
	AddedVCs int
	// Iterations counts executed cycle breaks (Algorithm 1 loop trips).
	Iterations int
	// InitialAcyclic is true when the input CDG already had no cycles, the
	// case the paper highlights for most application-specific topologies.
	InitialAcyclic bool
	// Breaks logs every executed break in order.
	Breaks []BreakRecord
}

// Remove runs the paper's Algorithm 1 on a topology and route table: it
// builds the channel dependency graph, and while a cycle exists it breaks
// the smallest one at the cheapest dependency in the cheaper of the two
// directions, adding VCs and rerouting flows. On success the returned
// topology/routes have an acyclic CDG.
//
// Remove first asks cdg.ProveAcyclic whether the input CDG is already
// acyclic, and answers such an input, the common case, with plain copies
// and no break loop. Otherwise the CDG is maintained incrementally across
// breaks: each break's channel duplications and flow reroutes are applied
// as localized edge updates, and cycle re-search is restricted to the
// strongly connected components those updates touched. The break
// sequence equals that of a loop that rebuilds the CDG on every break
// (see the differential tests). opts.FullRebuild is ignored.
//
// The inputs are not modified. Remove fails if a cycle edge cannot be
// attributed to a flow (inconsistent inputs) or if opts.MaxIterations is
// exceeded (never observed on the paper's benchmark family; the bound
// exists to fail loudly instead of looping).
func Remove(top *topology.Topology, tab *route.Table, opts Options) (*Result, error) {
	return RemoveContext(context.Background(), top, tab, opts)
}

// RemoveContext is Remove with cooperative cancellation: the break loop
// checks ctx between iterations and returns an error wrapping both
// nocerr.ErrCanceled and ctx.Err() as soon as the context is done. A
// canceled removal returns no partial result.
func RemoveContext(ctx context.Context, top *topology.Topology, tab *route.Table, opts Options) (*Result, error) {
	if cdg.ProveAcyclic(top, tablePaths(tab)) {
		// The loop checks ctx right after building its CDG; a settled
		// input fails the same way.
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		return &Result{Topology: top.Clone(), Routes: tab.Clone(), InitialAcyclic: true}, nil
	}
	return remove(ctx, top.Clone(), tab.Clone(), opts)
}

// tablePaths walks a table's routes in flow-ID order.
func tablePaths(tab *route.Table) cdg.Paths {
	return func(visit func([]topology.Channel)) {
		for f := 0; f < tab.NumFlows(); f++ {
			if r := tab.Route(f); r != nil {
				visit(r.Channels)
			}
		}
	}
}

// remove runs the break loop on top and tab, which it owns and rewrites:
// they become the Result's Topology and Routes.
func remove(ctx context.Context, top *topology.Topology, tab *route.Table, opts Options) (*Result, error) {
	m, err := cdg.BuildIncremental(top, tab)
	if err != nil {
		return nil, err
	}
	return ResumeContext(ctx, top, tab, m, opts)
}

// canceled folds a done context into the library's sentinel scheme: the
// returned error satisfies errors.Is for both nocerr.ErrCanceled and the
// context's own error (context.Canceled / DeadlineExceeded).
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", nocerr.ErrCanceled, err)
	}
	return nil
}

// applyBreak executes one Algorithm 1 loop trip on an already-selected
// cycle: choose the break, perform it, record it, and apply the resulting
// reroutes to the incremental CDG as edge updates.
func (res *Result) applyBreak(cycle []topology.Channel, opts Options, m *cdg.Incremental) error {
	if len(cycle) < 2 {
		return fmt.Errorf("core: degenerate self-dependency on channel %v (route repeats a channel?)", cycle)
	}
	if res.Iterations >= opts.maxIterations() {
		return fmt.Errorf("%w: cycle remains after %d breaks (MaxIterations reached)", nocerr.ErrCyclicCDG, res.Iterations)
	}
	// The CDG knows which flows create the cycle's edges; restricting
	// Algorithm 2 and the break to them turns the per-break cost from
	// O(all flows) into O(flows on the cycle).
	cycleFlows := m.CycleFlows(cycle)
	c, err := chooseBreak(cycle, res.Routes, opts.Policy, cycleFlows)
	if err != nil {
		return err
	}
	rec, reroutes, err := breakCycle(res.Topology, res.Routes, cycle, c.edge, c.dir, c.cost, cycleFlows)
	if err != nil {
		return err
	}
	if opts.VCLimit > 0 && res.AddedVCs+len(rec.NewChannels) > opts.VCLimit {
		// The caller discards the whole result on error, so the break that
		// busted the budget needs no rollback.
		return fmt.Errorf("%w: break %d needs %d more VC(s) on top of %d, limit %d",
			nocerr.ErrVCLimit, res.Iterations+1, len(rec.NewChannels), res.AddedVCs, opts.VCLimit)
	}
	for _, rr := range reroutes {
		if err := m.ApplyReroute(rr); err != nil {
			return err
		}
	}
	res.Breaks = append(res.Breaks, *rec)
	res.AddedVCs += len(rec.NewChannels)
	res.Iterations++
	if opts.OnBreak != nil {
		opts.OnBreak(*rec)
	}
	return nil
}

// selectCycle returns the next cycle to break under the given policy, or
// nil if the CDG is acyclic.
func selectCycle(m *cdg.Incremental, sel CycleSelection) []topology.Channel {
	switch sel {
	case FirstFound:
		return m.SmallestCycleThroughFirstCyclic()
	default:
		return m.SmallestCycle()
	}
}

// breakChoice is one break Algorithm 1 chose: the direction, the edge and
// its cost, with the MAX rows of both directions' cost tables.
type breakChoice struct {
	dir        Direction
	edge, cost int
	max        [2][]int // per-edge maxima, indexed by Direction
}

// chooseBreak evaluates Algorithm 2 in both directions in one pass over
// the cycle's flows, folding every dependency they create on the cycle
// into per-edge maxima, and picks the break the policy allows (forward
// wins ties, per Algorithm 1 step 7). The choice equals the BestEdge and
// BestCost of the BuildCostTable tables, without building their rows. A
// non-nil flows restricts the scan to that candidate subset, ascending;
// removal passes the CDG's flows of the cycle's edges, which are exactly
// the flows with a cost row, so the choice is the same as a scan of
// every route (nil).
func chooseBreak(cycle []topology.Channel, tab *route.Table, policy DirectionPolicy, flows []int) (breakChoice, error) {
	n := len(cycle)
	rows := make([]int, 2*n)
	c := breakChoice{max: [2][]int{rows[:n:n], rows[n:]}}
	k := newCostKernel(cycle)
	found := false
	for _, r := range scanRoutes(tab, flows) {
		for _, h := range k.flow(r.Channels) {
			found = true
			for dir, row := range c.max {
				row[h.edge] = max(row[h.edge], h.cost[dir])
			}
		}
	}
	if !found {
		return c, errNoCycleFlow(cycle)
	}
	// An edge no flow creates is 0 in both rows, so either row reports it.
	fEdge, fCost, err := cheapest(c.max[Forward], cycle)
	if err != nil {
		return c, err
	}
	bEdge, bCost, _ := cheapest(c.max[Backward], cycle)
	if policy == ForwardOnly || (policy != BackwardOnly && fCost <= bCost) {
		c.dir, c.edge, c.cost = Forward, fEdge, fCost
	} else {
		c.dir, c.edge, c.cost = Backward, bEdge, bCost
	}
	return c, nil
}

// scanRoutes returns the routes Algorithm 2 reads: those of flows, or
// every route of tab when flows is nil.
func scanRoutes(tab *route.Table, flows []int) []*route.Route {
	if flows == nil {
		return tab.Routes()
	}
	out := make([]*route.Route, 0, len(flows))
	for _, id := range flows {
		if r := tab.Route(id); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// DeadlockFree reports whether the topology/route pair already has an
// acyclic CDG (no removal needed).
func DeadlockFree(top *topology.Topology, tab *route.Table) (bool, error) {
	g, err := cdg.Build(top, tab)
	if err != nil {
		return false, err
	}
	return g.Acyclic(), nil
}

// Verify checks a Result: every route's channels must be provisioned in
// the result topology (cdg.Build names the first hop that is not) and its
// CDG must be acyclic. It is used by tests and by the CLI after every
// removal.
func (r *Result) Verify() error {
	g, err := cdg.Build(r.Topology, r.Routes)
	if err != nil {
		return err
	}
	if !g.Acyclic() {
		return fmt.Errorf("%w: result CDG still cyclic", nocerr.ErrCyclicCDG)
	}
	return nil
}
