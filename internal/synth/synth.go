package synth

import (
	"context"
	"fmt"
	"slices"
	"strconv"

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
	nSw := len(parts)
	assign := make([]int, g.NumCores())
	for p, cores := range parts {
		for _, core := range cores {
			assign[core] = p
		}
	}
	links, backbone, degree := chooseLinks(interClusterTraffic(g, assign, nSw), nSw, opts.maxNeighbors())

	// Build the topology once, at its exact size: switch p holds cluster
	// p, and every chosen pair becomes a bidirectional link in the order
	// chosen, the backbone first.
	top := topology.NewSized(g.Name+"_s"+strconv.Itoa(opts.SwitchCount), nSw, 2*len(links), g.NumCores(), degree)
	for _, cores := range parts {
		sw := top.AddSwitch("")
		for _, core := range cores {
			if err := top.AttachCore(core, sw); err != nil {
				return nil, err
			}
		}
	}
	// Chord links cost chordWeight, backbone links the default 1:
	// through-traffic should prefer the spanning backbone (whose
	// shortest-path routes are up/down-style and create no dependency
	// cycles), taking a chord mainly for the switch pair it directly
	// serves. 1.3 < 2 keeps direct chord hops cheaper than any two-hop
	// detour.
	const chordWeight = 1.3
	base := make([]float64, 2*len(links))
	for i, pr := range links {
		ab, ba, err := top.AddBidi(topology.SwitchID(pr.a), topology.SwitchID(pr.b))
		if err != nil {
			return nil, err
		}
		if i >= backbone {
			base[ab], base[ba] = chordWeight, chordWeight
		}
	}

	if err := canceled(ctx); err != nil {
		return nil, err
	}
	tab, err := route.ShortestPathsWeighted(top, g, base)
	if err != nil {
		return nil, err
	}
	if err := tab.Validate(top, g); err != nil {
		return nil, fmt.Errorf("synth: generated routes invalid: %w", err)
	}
	return &Result{Topology: top, Routes: tab}, nil
}

// pair is two switches a < b and the traffic between them, both ways.
type pair struct {
	a, b int32
	w    float64
}

// chooseLinks picks the switch pairs to connect, given the inter-cluster
// traffic matrix ict (row-major, nSw×nSw): first a maximum-weight
// spanning backbone (Kruskal over descending weights), then chords
// between the heaviest-communicating pairs while both ends have fewer
// than budget neighbours (the backbone ignores the budget, so the
// fabric is always connected). It returns the pairs in the order chosen,
// how many of them form the backbone, and the largest number of
// neighbours any switch ends up with.
func chooseLinks(ict []float64, nSw, budget int) (links []pair, backbone, degree int) {
	// Pairs by descending weight, ties by ascending (a, b). Pairs of
	// weight 0 skip the sort: they go last in the order generated, which
	// is where the order puts them, since no weight is negative.
	pairs := make([]pair, 0, nSw*(nSw-1)/2)
	collect := func(positive bool) {
		for a := 0; a < nSw; a++ {
			for b := a + 1; b < nSw; b++ {
				if w := ict[a*nSw+b] + ict[b*nSw+a]; (w > 0) == positive {
					pairs = append(pairs, pair{a: int32(a), b: int32(b), w: w})
				}
			}
		}
	}
	collect(true)
	slices.SortFunc(pairs, func(x, y pair) int {
		switch {
		case x.w > y.w:
			return -1
		case x.w < y.w:
			return 1
		case x.a != y.a:
			return int(x.a - y.a)
		}
		return int(x.b - y.b)
	})
	collect(false)

	linked := make([]bool, nSw*nSw) // linked[a*nSw+b] for a < b
	neighbors := make([]int, nSw)
	connect := func(pr pair) {
		linked[int(pr.a)*nSw+int(pr.b)] = true
		neighbors[pr.a]++
		neighbors[pr.b]++
		links = append(links, pr)
	}

	comp := make([]int32, nSw)
	for i := range comp {
		comp[i] = int32(i)
	}
	find := func(x int32) int32 {
		for comp[x] != x {
			comp[x] = comp[comp[x]]
			x = comp[x]
		}
		return x
	}
	for _, pr := range pairs {
		if len(links) == nSw-1 {
			break
		}
		ra, rb := find(pr.a), find(pr.b)
		if ra == rb {
			continue
		}
		connect(pr)
		comp[ra] = rb
	}
	backbone = len(links)

	for _, pr := range pairs {
		if pr.w == 0 {
			break
		}
		if linked[int(pr.a)*nSw+int(pr.b)] || neighbors[pr.a] >= budget || neighbors[pr.b] >= budget {
			continue
		}
		connect(pr)
	}
	return links, backbone, slices.Max(neighbors)
}

// canceled folds a done context into the sentinel scheme; see
// nocerr.ErrCanceled.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", nocerr.ErrCanceled, err)
	}
	return nil
}
