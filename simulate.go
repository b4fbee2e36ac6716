package nocdr

import (
	"context"

	"github.com/nocdr/nocdr/internal/wormhole"
)

// SimVariant is one lane of a simulation batch: a (seed, load)
// instantiation of the shared design. Zero fields inherit the base
// SimConfig.
type SimVariant = wormhole.Variant

// SimBatch is the multi-variant simulator (see Session.NewSimBatch): one
// shared design built once, N independent (seed, load) lanes, each
// distinct lane run to completion once.
type SimBatch = wormhole.Batch

// SimSpec bundles everything a batched simulation varies: the seed and
// load axes, the cycle budget, the adaptive selection policy, and the
// base configuration every lane inherits.
//
// The batch runs the cross product Seeds × Loads, one lane per pair, and
// refuses a product of more than 4,096 lanes with ErrInvalidInput before
// building anything. An empty Seeds (or Loads) axis means "the base
// config's value", so the zero SimSpec with just Base set is exactly one
// base-config run — Session.Simulate is that thin wrapper.
type SimSpec struct {
	// Seeds is the injection-seed axis; empty means [Base.Seed], a 0
	// entry means Base.Seed.
	Seeds []int64
	// Loads is the load-factor axis, values in (0, 1]; empty means
	// [Base.LoadFactor], a 0 entry means Base.LoadFactor.
	Loads []float64
	// Cycles, when > 0, overrides Base.MaxCycles — the cycle budget
	// every lane runs under.
	Cycles int64
	// Adaptive, when non-zero, overrides Base.Adaptive (only meaningful
	// for adaptive simulators; the table engine ignores it).
	Adaptive AdaptiveSelection
	// Base is the configuration every lane starts from.
	Base SimConfig
}

// variants expands the spec's Seeds × Loads cross product, lane-major by
// seed. A product over wormhole.MaxLanes is refused before any lane is
// allocated.
func (spec SimSpec) variants() ([]SimVariant, error) {
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	loads := spec.Loads
	if len(loads) == 0 {
		loads = []float64{0}
	}
	n, err := wormhole.CheckLanes(len(seeds), len(loads))
	if err != nil {
		return nil, err
	}
	vs := make([]SimVariant, 0, n)
	for _, sd := range seeds {
		for _, ld := range loads {
			vs = append(vs, SimVariant{Seed: sd, Load: ld})
		}
	}
	return vs, nil
}

// config folds the spec's overrides into the base configuration.
func (spec SimSpec) config(base SimConfig) SimConfig {
	if spec.Cycles > 0 {
		base.MaxCycles = spec.Cycles
	}
	if spec.Adaptive != 0 {
		base.Adaptive = spec.Adaptive
	}
	return base
}

// VariantStats is one lane's outcome, tagged with the (normalized) seed
// and load that produced it.
type VariantStats struct {
	Seed  int64
	Load  float64
	Stats *SimStats
}

// BatchStats is the outcome of Session.SimulateBatch: per-variant stats
// in Seeds × Loads cross-product order (seed-major).
type BatchStats struct {
	Variants []VariantStats
}

// SimulateBatch simulates every (seed, load) variant of the spec over
// one shared design: construction — route validation, dense route
// indices, next-hop tables — happens once, each lane owns only its
// mutable state, and per-variant stats are byte-identical to independent
// Session.Simulate runs with the same seeds (the differential tests pin
// this). WithParallel goroutines take the lanes from one queue, each
// allocating and running a lane to completion before taking the next.
// Variants whose seed cannot change the run (equal seeds, drain mode, or
// a load at which every flow always injects) run once and get copies of
// its stats, unless an epoch callback is attached (SimConfig.OnEpoch or
// the Session's progress feed). ctx is honored inside the stepping loop,
// and EventSimEpoch snapshots stream to the Session's progress feed lane
// by lane (from several lanes at once under WithParallel > 1).
func (s *Session) SimulateBatch(ctx context.Context, top *Topology, g *TrafficGraph, tab *RouteTable, spec SimSpec) (*BatchStats, error) {
	b, err := s.NewSimBatch(top, g, tab, spec)
	if err != nil {
		return nil, err
	}
	out, err := b.RunContext(ctx, s.parallel)
	if err != nil {
		return nil, wrapErr(err)
	}
	bs := &BatchStats{Variants: make([]VariantStats, len(out))}
	for i, v := range b.Variants() {
		bs.Variants[i] = VariantStats{Seed: v.Seed, Load: v.Load, Stats: out[i]}
	}
	return bs, nil
}

// NewSimBatch builds the batch without running it, for callers that
// drive lanes themselves; the Session's progress feed is attached the
// same way Simulate attaches it.
func (s *Session) NewSimBatch(top *Topology, g *TrafficGraph, tab *RouteTable, spec SimSpec) (*SimBatch, error) {
	vs, err := spec.variants()
	if err != nil {
		return nil, wrapErr(err)
	}
	b, err := wormhole.NewBatch(top, g, tab, spec.config(s.simConfig(spec.Base)), vs)
	return b, wrapErr(err)
}
