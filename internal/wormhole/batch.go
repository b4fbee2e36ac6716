package wormhole

import (
	"context"
	"fmt"
	"sync"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Variant is one lane of a Batch: a (seed, load) instantiation of the
// shared design. Zero fields inherit the base Config (Seed, LoadFactor),
// so Variant{} is "the base run" and Variant{Seed: 7} is "the base run
// reseeded".
type Variant struct {
	// Seed drives the lane's injection process; 0 means the base
	// Config.Seed.
	Seed int64
	// Load is the lane's injection load factor in (0, 1]; 0 means the
	// base Config.LoadFactor.
	Load float64
}

// Batch steps N seed/load variants of one design. Construction work —
// channel indexing, route validation, the transition table — happens once
// and is shared read-only across every lane; each lane owns only its
// mutable state (channel rings in one contiguous per-lane flit block,
// source queues, packet slots, channel bits, flow worklist, RNG, stats).
//
// Variant isolation invariant: lanes share nothing mutable, so each
// lane's statistics are byte-identical to an independent Simulator built
// with the same (seed, load) config — the differential and fuzz tests
// pin this against New/NewAdaptive as the oracle. Arbitration stays
// deterministic per lane because every shared table is immutable and the
// only randomness is the lane's own splitmix64 stream.
//
// Concurrency contract: RunContext may fan lanes across goroutines, but
// a Batch itself is single-use and single-goroutine like Simulator.
type Batch struct {
	lanes    []*Simulator
	variants []Variant
}

// NewBatch builds a batch over the single-path (table-routed) engine:
// one lane per variant, all sharing the design built from (top, g, tab).
func NewBatch(top *topology.Topology, g *traffic.Graph, tab *route.Table, cfg Config, variants []Variant) (*Batch, error) {
	cfg = cfg.withDefaults()
	proto, err := New(top, g, tab, cfg)
	if err != nil {
		return nil, err
	}
	return newBatch(proto, cfg, variants)
}

// NewAdaptiveBatch builds a batch over the adaptive engine (see
// NewAdaptive): one lane per variant sharing the route set's transition
// tables.
func NewAdaptiveBatch(top *topology.Topology, g *traffic.Graph, set *route.RouteSet, cfg Config, variants []Variant) (*Batch, error) {
	cfg = cfg.withDefaults()
	proto, err := NewAdaptive(top, g, set, cfg)
	if err != nil {
		return nil, err
	}
	return newBatch(proto, cfg, variants)
}

// newBatch normalizes the variants against the (already defaulted) base
// config and carves one lane per variant off the prototype. The first
// variant that matches the base config gets the prototype itself, so a
// batch of one base variant is exactly the simulator New would have
// returned.
func newBatch(proto *Simulator, cfg Config, variants []Variant) (*Batch, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("wormhole: batch needs at least one variant: %w", nocerr.ErrInvalidInput)
	}
	b := &Batch{
		lanes:    make([]*Simulator, len(variants)),
		variants: make([]Variant, len(variants)),
	}
	protoUsed := false
	for i, v := range variants {
		if v.Seed == 0 {
			v.Seed = cfg.Seed
		}
		if v.Load == 0 {
			v.Load = cfg.LoadFactor
		}
		// Positive-form check so NaN fails too.
		if !(v.Load >= 0 && v.Load <= 1) {
			return nil, fmt.Errorf("wormhole: variant %d load %f must be in (0,1]: %w", i, v.Load, nocerr.ErrInvalidInput)
		}
		b.variants[i] = v
		if !protoUsed && v.Seed == cfg.Seed && v.Load == cfg.LoadFactor {
			b.lanes[i] = proto
			protoUsed = true
			continue
		}
		laneCfg := cfg
		laneCfg.Seed = v.Seed
		laneCfg.LoadFactor = v.Load
		b.lanes[i] = proto.cloneVariant(laneCfg)
	}
	return b, nil
}

// Variants returns the normalized variants, lane-aligned with the slices
// Run/RunContext return.
func (b *Batch) Variants() []Variant { return b.variants }

// Len returns the number of lanes.
func (b *Batch) Len() int { return len(b.variants) }

// Run is RunContext without cancellation, on one goroutine.
func (b *Batch) Run() ([]*Stats, error) {
	return b.RunContext(context.Background(), 1)
}

// RunContext steps every lane to completion and returns per-lane stats,
// index-aligned with Variants. parallel > 1 partitions the lanes across
// min(parallel, len) goroutines; each partition runs its lanes one after
// another, in index order, through Simulator.RunContext. Each lane's
// outcome is independent of the partitioning (variant isolation
// invariant).
//
// On cancellation, finished lanes keep their stats, unfinished lanes are
// nil, and the returned error is the lowest-indexed unfinished lane's
// (wrapping nocerr.ErrCanceled and ctx.Err()).
func (b *Batch) RunContext(ctx context.Context, parallel int) ([]*Stats, error) {
	out := make([]*Stats, len(b.lanes))
	errs := make([]error, len(b.lanes))
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = b.lanes[i].RunContext(ctx)
		}
	}
	workers := min(parallel, len(b.lanes))
	if workers <= 1 {
		run(0, len(b.lanes))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				run(lo, hi)
			}(w*len(b.lanes)/workers, (w+1)*len(b.lanes)/workers)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// cloneVariant carves a fresh lane off a just-constructed prototype:
// everything immutable — the channel index, dense per-channel metadata,
// the transition table — is shared by reference; everything the stepping
// loop mutates is allocated fresh. The lane's injection probabilities are
// recomputed with the exact float expression the constructors use, so a
// lane is byte-for-byte the simulator New/NewAdaptive would return for
// laneCfg.
func (s *Simulator) cloneVariant(cfg Config) *Simulator {
	c := &Simulator{
		idx:      s.idx,
		tab:      s.tab,
		flows:    make([]flowState, len(s.flows)),
		chanLink: s.chanLink,
		chanVC:   s.chanVC,
		maxBW:    s.maxBW,
	}
	c.initLane(cfg, len(s.linkRR), len(s.flows))
	if s.linkOcc != nil {
		c.linkOcc = make([]int32, len(s.linkOcc))
	}
	for i := range s.flows {
		fs := s.flows[i]
		fs.next = s.tab.enter[fs.src]
		fs.queue = nil
		fs.qhead = 0
		fs.created = 0
		fs.probBits = uint64(cfg.LoadFactor * fs.bw / s.maxBW * (1 << 63))
		c.flows[i] = fs
	}
	return c
}
