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
// min(parallel, len) goroutines; within each partition the lanes advance
// in coarse lockstep — laneBlock cycles per lane per round over the
// shared design tables. Each lane's outcome is independent of the
// partitioning and the block size (variant isolation invariant).
//
// On cancellation, finished lanes keep their stats, unfinished lanes are
// nil, and the returned error is the lowest-indexed unfinished lane's
// (wrapping nocerr.ErrCanceled and ctx.Err()).
func (b *Batch) RunContext(ctx context.Context, parallel int) ([]*Stats, error) {
	out := make([]*Stats, len(b.lanes))
	errs := make([]error, len(b.lanes))
	workers := parallel
	if workers > len(b.lanes) {
		workers = len(b.lanes)
	}
	if workers <= 1 {
		runLockstep(ctx, b.lanes, out, errs)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(b.lanes) / workers
			hi := (w + 1) * len(b.lanes) / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				runLockstep(ctx, b.lanes[lo:hi], out[lo:hi], errs[lo:hi])
			}(lo, hi)
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

// laneBlock is how many cycles a lane advances per lockstep round. Lanes
// are fully independent, so the block size only trades cancellation
// staleness against cache residency: a lane's mutable state (channel
// buffers, in-flight flits, RNG) stays resident for a whole block
// instead of being evicted by its neighbours every cycle, while the
// shared design tables are hot for the entire round. 1024 matches the
// single-run path's cancellation poll period.
const laneBlock = ctxCheckMask + 1

// runLockstep drives a slice of lanes through the RunContext protocol in
// coarse lockstep: each round advances every live lane by up to
// laneBlock cycles, then polls for cancellation. Per-lane results are
// identical under any scheduling (variant isolation), so the block size
// is purely a performance knob.
func runLockstep(ctx context.Context, lanes []*Simulator, out []*Stats, errs []error) {
	done := ctx.Done()
	runs := make([]laneRun, len(lanes))
	for i, s := range lanes {
		runs[i] = s.startRun()
	}
	live := len(lanes)
	for live > 0 {
		if done != nil {
			select {
			case <-done:
				for i := range runs {
					if !runs[i].done {
						errs[i] = fmt.Errorf("%w at cycle %d: %w", nocerr.ErrCanceled, lanes[i].now, ctx.Err())
					}
				}
				return
			default:
			}
		}
		for i := range runs {
			lr := &runs[i]
			if lr.done {
				continue
			}
			for c := 0; c < laneBlock; c++ {
				if !lr.stepOnce() {
					lr.done = true
					live--
					lanes[i].finishStats()
					st := lanes[i].Stats()
					out[i] = &st
					break
				}
			}
		}
	}
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
