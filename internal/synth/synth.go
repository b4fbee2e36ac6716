package synth

import (
	"context"
	"fmt"
	"slices"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Options configures Synthesize. The zero value of every field except
// SwitchCount picks a sensible default.
type Options struct {
	// SwitchCount is the number of switches to build (the sweep variable
	// of the paper's Figures 8 and 9). Required, >= 1.
	SwitchCount int
	// MaxNeighbors bounds the number of distinct neighbor switches per
	// switch (bidirectional degree budget), reflecting the link-count
	// constraints of reference [21]. Spanning-tree links ignore the
	// budget so connectivity is always guaranteed. 0 means 4.
	MaxNeighbors int
	// Seed drives the (purely tie-breaking) randomness of partition
	// refinement. 0 means 1.
	Seed int64
}

func (o Options) maxNeighbors() int {
	if o.MaxNeighbors <= 0 {
		return 4
	}
	return o.MaxNeighbors
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is a synthesized design: the custom topology (cores attached)
// and a fixed shortest-path route for every flow — exactly the inputs the
// paper's removal algorithm takes.
type Result struct {
	Topology *topology.Topology
	Routes   *route.Table
}

// Synthesize builds an application-specific topology for the given
// communication graph:
//
//  1. cluster cores onto SwitchCount switches by traffic affinity;
//  2. connect the switches with a traffic-weighted spanning backbone
//     (bidirectional), guaranteeing all-pairs connectivity;
//  3. add direct bidirectional links between the heaviest-communicating
//     switch pairs while the per-switch neighbor budget allows;
//  4. route every flow with deterministic load-aware shortest paths.
//
// The output is deterministic for fixed inputs.
func Synthesize(g *traffic.Graph, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), g, opts)
}

// SynthesizeContext is Synthesize with cooperative cancellation, checked
// between the partition, link-construction and routing phases.
func SynthesizeContext(ctx context.Context, g *traffic.Graph, opts Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if opts.SwitchCount < 1 {
		return nil, fmt.Errorf("synth: switch count %d must be >= 1: %w", opts.SwitchCount, nocerr.ErrInvalidInput)
	}
	if g.NumCores() == 0 {
		return nil, fmt.Errorf("synth: communication graph has no cores: %w", nocerr.ErrInvalidInput)
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}

	parts := partition(g, opts.SwitchCount, opts.seed())
	top := topology.New(fmt.Sprintf("%s_s%d", g.Name, opts.SwitchCount))
	assign := make([]int, g.NumCores())
	for p, cores := range parts {
		sw := top.AddSwitch("")
		for _, core := range cores {
			if err := top.AttachCore(core, sw); err != nil {
				return nil, err
			}
			assign[core] = p
		}
	}
	nSw := top.NumSwitches()
	if nSw == 1 {
		// Single switch: every flow is local; no links, no deadlock.
		tab, err := route.ShortestPaths(top, g)
		if err != nil {
			return nil, err
		}
		return &Result{Topology: top, Routes: tab}, nil
	}

	ict := interClusterTraffic(g, assign, nSw)

	// Symmetric pair weights for the backbone and chord selection.
	type pair struct {
		a, b int
		w    float64
	}
	var pairs []pair
	for a := 0; a < nSw; a++ {
		for b := a + 1; b < nSw; b++ {
			pairs = append(pairs, pair{a: a, b: b, w: ict[a][b] + ict[b][a]})
		}
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		switch {
		case x.w > y.w:
			return -1
		case x.w < y.w:
			return 1
		case x.a != y.a:
			return x.a - y.a
		}
		return x.b - y.b
	})

	// chordCost marks non-backbone links: through-traffic should prefer
	// the spanning backbone (whose shortest-path routes are up/down-style
	// and create no dependency cycles), taking a chord mainly for the
	// switch pair it directly serves. 1.3 < 2 keeps direct chord hops
	// cheaper than any two-hop detour.
	const chordWeight = 1.3
	chordCost := make(map[topology.LinkID]float64)
	neighbors := make([]int, nSw)
	connect := func(a, b int, chord bool) error {
		ab, ba, err := top.AddBidi(topology.SwitchID(a), topology.SwitchID(b))
		if err != nil {
			return err
		}
		if chord {
			chordCost[ab] = chordWeight
			chordCost[ba] = chordWeight
		}
		neighbors[a]++
		neighbors[b]++
		return nil
	}

	// Maximum-weight spanning backbone (Kruskal over descending weights).
	comp := make([]int, nSw)
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	added := 0
	for _, pr := range pairs {
		if added == nSw-1 {
			break
		}
		ra, rb := find(pr.a), find(pr.b)
		if ra == rb {
			continue
		}
		if err := connect(pr.a, pr.b, false); err != nil {
			return nil, err
		}
		comp[ra] = rb
		added++
	}

	// Chords: heaviest pairs first, within the neighbor budget.
	budget := opts.maxNeighbors()
	for _, pr := range pairs {
		if pr.w == 0 {
			break
		}
		if _, dup := top.FindLink(topology.SwitchID(pr.a), topology.SwitchID(pr.b)); dup {
			continue
		}
		if neighbors[pr.a] >= budget || neighbors[pr.b] >= budget {
			continue
		}
		if err := connect(pr.a, pr.b, true); err != nil {
			return nil, err
		}
	}

	if err := canceled(ctx); err != nil {
		return nil, err
	}
	tab, err := route.ShortestPathsWeighted(top, g, chordCost)
	if err != nil {
		return nil, err
	}
	if err := tab.Validate(top, g); err != nil {
		return nil, fmt.Errorf("synth: generated routes invalid: %w", err)
	}
	return &Result{Topology: top, Routes: tab}, nil
}

// canceled folds a done context into the sentinel scheme; see
// nocerr.ErrCanceled.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", nocerr.ErrCanceled, err)
	}
	return nil
}
