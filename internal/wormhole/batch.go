package wormhole

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// source queues, packet slots, channel bits, flow worklist, RNG, stats),
// allocated by the goroutine that runs it.
//
// Variant isolation invariant: lanes share nothing mutable, so each
// lane's statistics are byte-identical to an independent Simulator built
// with the same (seed, load) config — the differential and fuzz tests
// pin this against New/NewAdaptive as the oracle. Arbitration stays
// deterministic per lane because every shared table is immutable and the
// only randomness is the lane's own splitmix64 stream.
//
// One run per distinct lane: two lanes at the same load whose seeds
// cannot make their runs differ — equal seeds, drain mode, or a load at
// which no flow's injection draw decides anything — are one run, and the
// later lane reports a deep copy of the earlier one's stats. The rule
// does not apply when Config.OnEpoch is set, so every lane emits its own
// epochs.
//
// Concurrency contract: RunContext may fan lanes across goroutines, but
// a Batch itself is single-use and single-goroutine like Simulator.
type Batch struct {
	proto    *Simulator
	variants []Variant
	// runOf[i] is the lane whose run lane i reports: i for a distinct
	// lane, the first lane with the same run otherwise.
	runOf []int
	// protoLane is the distinct lane the prototype runs as, -1 if none.
	protoLane int
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

// runKey identifies a lane's run: its load, and its seed where the seed
// can make a difference (0 otherwise).
type runKey struct {
	load float64
	seed int64
}

// newBatch normalizes the variants against the (already defaulted) base
// config and maps each to its run. The first distinct lane whose run is
// the prototype's gets the prototype itself, so a batch of one base
// variant is exactly the simulator New would have returned.
func newBatch(proto *Simulator, cfg Config, variants []Variant) (*Batch, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("wormhole: batch needs at least one variant: %w", nocerr.ErrInvalidInput)
	}
	b := &Batch{
		proto:     proto,
		variants:  make([]Variant, len(variants)),
		runOf:     make([]int, len(variants)),
		protoLane: -1,
	}
	key := func(v Variant) runKey {
		if proto.seedFree(v.Load) {
			return runKey{load: v.Load}
		}
		return runKey{load: v.Load, seed: v.Seed}
	}
	protoKey := key(Variant{Seed: cfg.Seed, Load: cfg.LoadFactor})
	first := make(map[runKey]int, len(variants))
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
		k := key(v)
		run, seen := first[k]
		if !seen || cfg.OnEpoch != nil {
			first[k], run = i, i
			if b.protoLane < 0 && k == protoKey {
				b.protoLane = i
			}
		}
		b.runOf[i] = run
	}
	return b, nil
}

// seedFree reports whether the seed cannot change a run at load. In
// drain mode no draw is made. Otherwise the injection draw, the seeded
// stream's only use, compares the draw's top 63 bits against each flow's
// probBits, so it never fires at 0 and always fires from 2^63 on.
func (s *Simulator) seedFree(load float64) bool {
	if s.cfg.PacketsPerFlow > 0 {
		return true
	}
	for i := range s.flows {
		if pb := probBits(load, s.flows[i].bw, s.maxBW); pb != 0 && pb < 1<<63 {
			return false
		}
	}
	return true
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

// RunContext steps every distinct lane to completion and returns
// per-lane stats, index-aligned with Variants: it is RunBatches over
// this batch alone. Each lane's outcome is independent of parallel
// (variant isolation invariant).
func (b *Batch) RunContext(ctx context.Context, parallel int) ([]*Stats, error) {
	out, err := RunBatches(ctx, parallel, b)
	return out[0], err
}

// laneRef names one lane of one batch of a RunBatches call.
type laneRef struct{ batch, lane int }

// RunBatches runs the distinct lanes of every batch from one queue,
// batch by batch and in lane order, over min(parallel, lanes)
// goroutines, each taking the next lane when it finishes one, building
// it and running it through Simulator.RunContext. Putting the batch with
// the longest lanes first lets the shorter ones fill in behind it. It
// returns per-lane stats indexed [batch][lane]; a lane that repeats an
// earlier lane's run gets a deep copy of its stats.
//
// On cancellation, finished lanes and their copies keep their stats,
// unfinished lanes are nil, and the returned error is that of the lowest
// (batch, lane) lane that did not finish (wrapping nocerr.ErrCanceled
// and ctx.Err()).
func RunBatches(ctx context.Context, parallel int, batches ...*Batch) ([][]*Stats, error) {
	out := make([][]*Stats, len(batches))
	errs := make([][]error, len(batches))
	var queue []laneRef
	for bi, b := range batches {
		out[bi] = make([]*Stats, len(b.variants))
		errs[bi] = make([]error, len(b.variants))
		for i, run := range b.runOf {
			if run == i {
				queue = append(queue, laneRef{bi, i})
			}
		}
	}
	run := func(r laneRef) {
		out[r.batch][r.lane], errs[r.batch][r.lane] = batches[r.batch].lane(r.lane).RunContext(ctx)
	}
	if workers := min(parallel, len(queue)); workers <= 1 {
		for _, r := range queue {
			run(r)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := next.Add(1) - 1; k < int64(len(queue)); k = next.Add(1) - 1 {
					run(queue[k])
				}
			}()
		}
		wg.Wait()
	}
	var first error
	for bi, b := range batches {
		for i, run := range b.runOf {
			if run != i {
				if st := out[bi][run]; st != nil {
					out[bi][i] = st.clone()
				} else {
					errs[bi][i] = errs[bi][run]
				}
			}
			if first == nil {
				first = errs[bi][i]
			}
		}
	}
	return out, first
}

// lane returns the simulator for distinct lane i: the prototype, or a
// fresh lane carved off it.
func (b *Batch) lane(i int) *Simulator {
	if i == b.protoLane {
		return b.proto
	}
	cfg := b.proto.cfg
	cfg.Seed = b.variants[i].Seed
	cfg.LoadFactor = b.variants[i].Load
	return b.proto.cloneVariant(cfg)
}

// clone deep-copies stats, so a copy lane shares no slice with its
// source.
func (st *Stats) clone() *Stats {
	c := *st
	c.DeadlockPackets = slices.Clone(st.DeadlockPackets)
	c.Latencies = slices.Clone(st.Latencies)
	c.PerFlow = slices.Clone(st.PerFlow)
	return &c
}

// cloneVariant carves a fresh lane off a just-constructed prototype:
// everything immutable — the channel index, dense per-channel metadata,
// the transition table — is shared by reference; everything the stepping
// loop mutates is allocated fresh. The lane's injection probabilities are
// recomputed with probBits, the expression the constructors use, so a
// lane is byte-for-byte the simulator New/NewAdaptive would return for
// laneCfg. It reads only prototype fields no run writes, so a lane may be
// carved while the prototype runs as another lane.
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
		fs := &s.flows[i]
		c.flows[i] = flowState{
			id:       fs.id,
			src:      fs.src,
			next:     s.tab.enter[fs.src],
			probBits: probBits(cfg.LoadFactor, fs.bw, s.maxBW),
			bw:       fs.bw,
			flits:    fs.flits,
			local:    fs.local,
			maxLen:   fs.maxLen,
		}
	}
	return c
}
