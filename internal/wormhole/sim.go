package wormhole

import (
	"context"
	"fmt"
	"sort"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// packet is one in-flight wormhole packet.
type packet struct {
	id      int
	flow    int
	flits   int // total length
	created int64

	injected int // flits that have left the source queue (0..flits)
	ejected  int // flits that have left the network at the destination
}

// flitRef carries the owning packet by pointer so the per-cycle hot loop
// never consults a lookup table to resolve a flit.
type flitRef struct {
	pkt    *packet
	isHead bool
	isTail bool
}

// adaptivePending marks a channel whose owning worm's head has not yet
// committed to a next channel — the adaptive engine re-evaluates the
// permitted candidates every cycle until one is admissible; the head's
// departure then freezes the choice so body flits follow it.
const adaptivePending = -2

// chanState is the runtime state of one channel: its downstream FIFO
// (a fixed-capacity ring over a preallocated slice) and owning packet.
// Invariant: the buffer holds only the owner's flits, and owner == -1
// exactly when the buffer is empty and no worm spans the channel.
type chanState struct {
	buf     []flitRef // ring storage, len == Config.BufferDepth
	head    int       // index of the front flit
	n       int       // occupied slots
	owner   int       // packet ID, -1 if free
	hop     int       // owner's hop index at this channel (valid while owner != -1)
	nextIdx int32     // owner's next channel index, -1 at the final hop, adaptivePending while undecided
}

// front returns the flit at the head of the FIFO; the caller must have
// checked n > 0.
func (cs *chanState) front() flitRef { return cs.buf[cs.head] }

// flowState tracks a flow's injection side; its route is held as dense
// channel indices.
type flowState struct {
	id       int
	routeIdx []int32
	probBits uint64    // per-cycle creation probability, scaled to [0, 2^63]
	bw       float64   // declared bandwidth, kept so lanes can rescale probBits per load
	flits    int       // packet length, hoisted out of the creation loop
	local    bool      // same-switch flow: packets bypass the fabric
	maxLen   int       // longest candidate path in hops (route length in table mode)
	queue    []*packet // pending packets; queue[qhead:] are live
	qhead    int       // consumed prefix, reclaimed when the queue empties
	created  int       // packets created so far (for PacketsPerFlow budgeting)

	// Adaptive-mode routing tables (nil in single-path mode): first are
	// the permitted injection channels, adj the permitted transitions out
	// of each channel, final the channels that end at the destination
	// switch. All candidate lists are deduplicated and sorted ascending,
	// so adaptive selection is deterministic.
	first []int32
	adj   map[int32][]int32
	final map[int32]bool
	// curFirst is the channel the currently-injecting packet's head chose;
	// body flits of the same packet must follow it. Valid while the front
	// packet is mid-injection.
	curFirst int32
}

// qlen returns the number of queued packets.
func (fs *flowState) qlen() int { return len(fs.queue) - fs.qhead }

// qfront returns the packet next to inject; the caller checks qlen > 0.
func (fs *flowState) qfront() *packet { return fs.queue[fs.qhead] }

// Simulator runs a wormhole NoC. Create with New, advance with Step or
// Run.
//
// Concurrency contract: a Simulator is single-goroutine — never share one
// across goroutines. The *inputs* however are only read, never written:
// New and every subsequent Step/Run treat the topology, traffic graph and
// route table as immutable, so any number of Simulators may share the
// same inputs from different goroutines (pinned by a -race test).
type Simulator struct {
	cfg      Config
	adaptive bool                     // NewAdaptive engine: per-hop output selection
	rngState uint64                   // splitmix64 state driving the injection process
	idx      map[topology.Channel]int // channel → dense index (construction only)
	chans    []chanState
	flows    []flowState
	live     int       // packets currently in the fabric (injected, not yet delivered)
	free     []*packet // delivered packet structs, recycled by createPackets
	nextPkt  int

	// Dense per-channel metadata, indexed like chans.
	chanLink []int32 // physical link of each channel
	chanVC   []int32 // VC index of each channel
	// linkOcc counts flits buffered across all VCs of each link — the
	// LeastCongested congestion signal. It is allocated (and maintained)
	// only by NewAdaptive under that policy, so the single-path engine
	// and FirstFree runs pay nothing for it.
	linkOcc []int32

	// Per-step scratch, reused to keep the steady-state loop allocation-free.
	active    []int32  // channels with a non-empty buffer (the worklist)
	activePos []int32  // channel → position in active, -1 if absent
	ready     []int32  // flows with a non-empty source queue
	readyPos  []int32  // flow → position in ready, -1 if absent
	moves     []move   // this cycle's decided moves
	buckets   [][]cand // per-link transfer candidates
	touched   []int32  // links with candidates this cycle
	linkRR    []int    // per-link round-robin counters

	now          int64
	lastProgress int64
	stats        Stats
	rec          *recovery // in-flight DISHA-style recovery, if any

	// maxBW is the bandwidth normalizer probBits was scaled with, kept so
	// batch lanes recompute per-load probabilities with the exact same
	// float expression the constructor used (byte-identical injection).
	maxBW float64
}

// newSkeleton builds the per-channel state shared by both engines and
// returns the simulator plus the bandwidth normalizer for probBits.
func newSkeleton(top *topology.Topology, g *traffic.Graph, cfg Config) (*Simulator, float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	channels := top.Channels()
	s := &Simulator{
		cfg:       cfg,
		rngState:  uint64(cfg.Seed),
		idx:       make(map[topology.Channel]int, len(channels)),
		chans:     make([]chanState, len(channels)),
		chanLink:  make([]int32, len(channels)),
		chanVC:    make([]int32, len(channels)),
		activePos: make([]int32, len(channels)),
		buckets:   make([][]cand, top.NumLinks()),
		linkRR:    make([]int, top.NumLinks()),
	}
	for i, ch := range channels {
		s.idx[ch] = i
		s.chans[i] = chanState{buf: make([]flitRef, cfg.BufferDepth), owner: -1}
		s.chanLink[i] = int32(ch.Link)
		s.chanVC[i] = int32(ch.VC)
		s.activePos[i] = -1
	}

	s.stats.PerFlow = make([]FlowStats, g.NumFlows())
	maxBW := 0.0
	for _, f := range g.Flows() {
		if f.Bandwidth > maxBW {
			maxBW = f.Bandwidth
		}
	}
	if maxBW == 0 {
		maxBW = 1
	}
	s.maxBW = maxBW
	return s, maxBW, nil
}

// finishInit sizes the ready worklist once the flow states exist.
func (s *Simulator) finishInit() {
	s.readyPos = make([]int32, len(s.flows))
	for i := range s.readyPos {
		s.readyPos[i] = -1
	}
}

// New builds a simulator for a routed workload. Every flow must have a
// route whose channels are provisioned (and not faulted) in the
// topology. The inputs are never mutated, neither here nor by Step/Run.
func New(top *topology.Topology, g *traffic.Graph, tab *route.Table, cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	s, maxBW, err := newSkeleton(top, g, cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range g.Flows() {
		r := tab.Route(f.ID)
		if r == nil {
			return nil, fmt.Errorf("wormhole: flow %d has no route", f.ID)
		}
		fs := flowState{
			id:       f.ID,
			routeIdx: make([]int32, len(r.Channels)),
			probBits: uint64(cfg.LoadFactor * f.Bandwidth / maxBW * (1 << 63)),
			bw:       f.Bandwidth,
			flits:    f.PacketFlits,
			local:    len(r.Channels) == 0,
			maxLen:   len(r.Channels),
		}
		seen := make(map[int]bool, len(r.Channels))
		for hopIdx, ch := range r.Channels {
			ci, ok := s.idx[ch]
			if !ok {
				return nil, fmt.Errorf("wormhole: flow %d uses unprovisioned channel %v", f.ID, ch)
			}
			if top.FaultedChannel(ch) {
				return nil, fmt.Errorf("wormhole: flow %d routed over faulted link %d", f.ID, ch.Link)
			}
			if seen[ci] {
				return nil, fmt.Errorf("wormhole: flow %d visits channel %v twice", f.ID, ch)
			}
			seen[ci] = true
			fs.routeIdx[hopIdx] = int32(ci)
		}
		s.flows = append(s.flows, fs)
	}
	s.finishInit()
	return s, nil
}

// enqueue appends a packet to flow fi's source queue, maintaining the
// ready worklist.
func (s *Simulator) enqueue(fi int, p *packet) {
	fs := &s.flows[fi]
	if fs.qlen() == 0 {
		// Reclaim the consumed prefix so steady-state queue storage is
		// reused instead of creeping through fresh allocations.
		fs.queue = fs.queue[:0]
		fs.qhead = 0
		s.readyPos[fi] = int32(len(s.ready))
		s.ready = append(s.ready, int32(fi))
	}
	fs.queue = append(fs.queue, p)
}

// dequeue removes flow fi's front packet, maintaining the ready worklist.
func (s *Simulator) dequeue(fi int) {
	fs := &s.flows[fi]
	fs.queue[fs.qhead] = nil
	fs.qhead++
	if fs.qhead >= 16 {
		// Compact in place so a queue that never fully drains (sustained
		// load) still keeps its backing array bounded at O(cap + 16)
		// instead of growing one slot per delivered packet.
		n := copy(fs.queue, fs.queue[fs.qhead:])
		clear(fs.queue[n:])
		fs.queue = fs.queue[:n]
		fs.qhead = 0
	}
	if fs.qlen() == 0 {
		pos := s.readyPos[fi]
		last := s.ready[len(s.ready)-1]
		s.ready[pos] = last
		s.readyPos[last] = pos
		s.ready = s.ready[:len(s.ready)-1]
		s.readyPos[fi] = -1
	}
}

// Now returns the current simulation cycle.
func (s *Simulator) Now() int64 { return s.now }

// Stats returns a snapshot of the statistics so far.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Cycles = s.now
	return st
}

// move describes one flit transmission decided this cycle.
type move struct {
	// src: source buffer channel index, or -1 for injection from flow fl.
	src int
	fl  int
	// dst: destination channel index, or -1 for ejection.
	dst int
}

// Step advances the simulation by one cycle and reports whether anything
// moved. The order within a cycle is: recovery completion, packet
// creation, move arbitration against start-of-cycle state, move
// application, progress bookkeeping.
func (s *Simulator) Step() bool {
	s.stepRecovery()
	s.createPackets()
	return s.commit(s.arbitrate())
}

// commit applies the cycle's arbitrated moves and does the progress
// bookkeeping that closes the cycle, reporting whether anything moved.
func (s *Simulator) commit(moves []move) bool {
	for _, m := range moves {
		s.apply(m)
	}
	progressed := len(moves) > 0
	if progressed || !s.flitsInFlight() || s.rec != nil {
		// An in-flight recovery counts as progress: its lane delivers
		// flits the normal switch fabric cannot see.
		s.lastProgress = s.now
	}
	s.now++
	return progressed
}

// createPackets draws new packets for each flow per the injection process.
func (s *Simulator) createPackets() {
	for i := range s.flows {
		fs := &s.flows[i]
		if s.cfg.PacketsPerFlow > 0 {
			// Drain mode: deterministic injection that keeps the source
			// queue primed until the budget is spent.
			if fs.created >= s.cfg.PacketsPerFlow || fs.qlen() >= 2 {
				continue
			}
		} else if fs.qlen() >= s.cfg.SourceQueueCap {
			// Source back-pressure: offered load beyond the queue cap is
			// shed, keeping saturation runs in bounded memory.
			continue
		} else if s.nextRand()>>1 >= fs.probBits {
			continue
		}
		p := s.newPacket()
		*p = packet{
			id:      s.nextPkt,
			flow:    fs.id,
			flits:   fs.flits,
			created: s.now,
		}
		s.nextPkt++
		fs.created++
		s.stats.PerFlow[fs.id].Injected++
		if fs.local {
			// Local (same-switch) delivery bypasses the fabric. It counts
			// as delivered but contributes no latency sample: local
			// latency is zero by construction, and letting it into the
			// statistics would drown the fabric percentiles at low switch
			// counts.
			s.stats.LocalPackets++
			s.stats.PerFlow[fs.id].Delivered++
			s.freePacket(p)
			continue
		}
		s.live++
		s.enqueue(i, p)
		s.stats.InjectedPackets++
	}
}

// nextRand draws the next value of the seeded injection process. It is a
// splitmix64 step — a few arithmetic ops, no locking, no pointer chasing —
// because at low loads the per-flow Bernoulli draws are a measurable share
// of the whole cycle. The Bernoulli test compares the top 63 bits against
// the flow's scaled probability, so probability 1 always fires.
func (s *Simulator) nextRand() uint64 {
	s.rngState += 0x9e3779b97f4a7c15
	z := s.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newPacket takes a packet struct off the free list, or allocates one.
func (s *Simulator) newPacket() *packet {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	return new(packet)
}

// freePacket recycles a delivered packet. The caller must guarantee no
// flitRef or queue slot still points at it.
func (s *Simulator) freePacket(p *packet) {
	s.free = append(s.free, p)
}

// push appends a flit to channel ci's FIFO and maintains the active
// worklist. The caller must have established buffer space (admissible).
func (s *Simulator) push(ci int, fr flitRef) {
	cs := &s.chans[ci]
	if cs.n == 0 {
		s.activePos[ci] = int32(len(s.active))
		s.active = append(s.active, int32(ci))
	}
	pos := cs.head + cs.n
	if pos >= len(cs.buf) {
		pos -= len(cs.buf)
	}
	cs.buf[pos] = fr
	cs.n++
	if s.linkOcc != nil {
		s.linkOcc[s.chanLink[ci]]++
	}
}

// pop removes and returns channel ci's front flit, maintaining the
// worklist.
func (s *Simulator) pop(ci int) flitRef {
	cs := &s.chans[ci]
	fr := cs.buf[cs.head]
	cs.buf[cs.head] = flitRef{}
	cs.head++
	if cs.head == len(cs.buf) {
		cs.head = 0
	}
	cs.n--
	if s.linkOcc != nil {
		s.linkOcc[s.chanLink[ci]]--
	}
	if cs.n == 0 {
		s.deactivate(ci)
	}
	return fr
}

// clearChannel empties channel ci outright (recovery pulling a worm out of
// the network) and returns how many flits were discarded.
func (s *Simulator) clearChannel(ci int) int {
	cs := &s.chans[ci]
	n := cs.n
	if n > 0 {
		for i := range cs.buf {
			cs.buf[i] = flitRef{}
		}
		if s.linkOcc != nil {
			s.linkOcc[s.chanLink[ci]] -= int32(n)
		}
		s.deactivate(ci)
	}
	cs.head, cs.n = 0, 0
	cs.owner = -1
	return n
}

// deactivate removes channel ci from the active worklist (swap-remove).
func (s *Simulator) deactivate(ci int) {
	pos := s.activePos[ci]
	last := s.active[len(s.active)-1]
	s.active[pos] = last
	s.activePos[last] = pos
	s.active = s.active[:len(s.active)-1]
	s.activePos[ci] = -1
}

// cand is a link-transfer candidate. The key totally orders candidates on
// a link — (destination VC, kind, source ordinal) packed into one int64 —
// so the round-robin pick is a pure function of the candidate *set*, never
// of discovery order. Kind 0 is a buffer-to-buffer transfer, kind 1 an
// injection; the source ordinal is the source channel index for transfers
// and numChannels+flowID for injections.
type cand struct {
	m   move
	key int64
}

func candKey(vc int32, kind, src int) int64 {
	return int64(int(vc)*2+kind)<<32 | int64(src)
}

// arbitrate collects at most one move per physical link plus unlimited
// ejections, all judged against start-of-cycle state. It walks only the
// active worklist — idle channels cost nothing — and uses the dense
// per-flow route indices, so the steady-state cycle does no map lookups
// and no allocation.
func (s *Simulator) arbitrate() []move {
	moves := s.moves[:0]
	s.touched = s.touched[:0]
	// One pass over occupied channels yields both ejections (final-hop
	// buffers always drain one flit) and transfer candidates. The owner's
	// next-hop channel is cached on the channel itself, so this loop
	// never touches flow state.
	for _, ci32 := range s.active {
		ci := int(ci32)
		cs := &s.chans[ci]
		if cs.nextIdx == -1 {
			moves = append(moves, move{src: ci, dst: -1})
			continue
		}
		fr := cs.front()
		var ni int
		if cs.nextIdx == adaptivePending {
			// Undecided adaptive head: FIFO order guarantees the front
			// flit is the head, so choose among the flow's permitted next
			// channels now; the choice only commits when the move lands.
			ni = s.chooseAdaptive(s.flows[fr.pkt.flow].adj[ci32], fr)
			if ni < 0 {
				continue
			}
		} else {
			ni = int(cs.nextIdx)
			if !s.admissible(ni, fr) {
				continue
			}
		}
		s.addCand(ni, cand{
			m:   move{src: ci, dst: ni},
			key: candKey(s.chanVC[ni], 0, ci),
		})
	}
	// Injection candidates, off the ready worklist. The admissibility
	// test is unrolled so a blocked flow (full or foreign-owned first
	// channel — the common case under load) bails before touching its
	// queue.
	depth := s.cfg.BufferDepth
	for _, fi := range s.ready {
		fs := &s.flows[fi]
		var ni int
		if s.adaptive {
			p := fs.qfront()
			if p.injected == 0 {
				// New head: adaptive choice among the permitted injection
				// channels.
				fr := flitRef{pkt: p, isHead: true, isTail: p.flits == 1}
				ni = s.chooseAdaptive(fs.first, fr)
				if ni < 0 {
					continue
				}
			} else {
				// Body flits follow the head's committed first channel.
				ni = int(fs.curFirst)
				cs := &s.chans[ni]
				if cs.n >= depth || cs.owner != p.id {
					continue
				}
			}
		} else {
			ni = int(fs.routeIdx[0])
			cs := &s.chans[ni]
			if cs.n >= depth {
				continue
			}
			p := fs.qfront()
			if cs.owner != p.id && (cs.owner != -1 || p.injected != 0) {
				continue
			}
		}
		s.addCand(ni, cand{
			m:   move{src: -1, fl: fs.id, dst: ni},
			key: candKey(s.chanVC[ni], 1, len(s.chans)+fs.id),
		})
	}
	// One winner per contended link. Winners on different links are
	// independent and the keys are unique, so the outcome does not depend
	// on the order links were touched in.
	for _, l := range s.touched {
		cands := s.buckets[l]
		pick := 0
		if len(cands) > 1 {
			sortCands(cands)
			pick = s.linkRR[l] % len(cands)
			s.linkRR[l]++
		}
		moves = append(moves, cands[pick].m)
		s.buckets[l] = cands[:0]
	}
	s.moves = moves
	return moves
}

// addCand buckets a transfer candidate by its destination's physical link.
func (s *Simulator) addCand(ni int, c cand) {
	l := s.chanLink[ni]
	if len(s.buckets[l]) == 0 {
		s.touched = append(s.touched, l)
	}
	s.buckets[l] = append(s.buckets[l], c)
}

// sortCands is an insertion sort: candidate lists are per-link and tiny,
// and this avoids sort.Slice's closure allocation on the hot path.
func sortCands(cands []cand) {
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].key < cands[j-1].key; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
}

// admissible reports whether flit fr may enter channel ci this cycle
// (ownership and buffer space against start-of-cycle state).
func (s *Simulator) admissible(ci int, fr flitRef) bool {
	cs := &s.chans[ci]
	if cs.n >= s.cfg.BufferDepth {
		return false
	}
	if cs.owner == fr.pkt.id {
		return true
	}
	return cs.owner == -1 && fr.isHead
}

// apply executes one move decided by arbitrate. Moves within a cycle
// commute: every source channel appears in at most one move, every
// destination channel gains at most one flit, and admissibility was
// judged against start-of-cycle state.
func (s *Simulator) apply(m move) {
	if m.dst == -1 {
		// Ejection.
		fr := s.pop(m.src)
		p := fr.pkt
		p.ejected++
		s.stats.DeliveredFlits++
		if fr.isTail {
			s.chans[m.src].owner = -1
			s.recordDelivery(p)
			s.live--
			s.stats.DeliveredPackets++
			s.freePacket(p)
		}
		return
	}
	var fr flitRef
	hop := 0
	if m.src == -1 {
		// Injection: consume the next flit of the flow's head packet.
		fs := &s.flows[m.fl]
		p := fs.qfront()
		fr = flitRef{pkt: p, isHead: p.injected == 0, isTail: p.injected == p.flits-1}
		p.injected++
		s.stats.InjectedFlits++
		if fr.isHead {
			// Commit the head's injection choice so body flits follow.
			fs.curFirst = int32(m.dst)
		}
		if fr.isTail {
			s.dequeue(m.fl)
		}
	} else {
		src := &s.chans[m.src]
		hop = src.hop + 1
		fr = s.pop(m.src)
		if fr.isHead && s.adaptive {
			// The head's departure freezes the adaptive choice for the
			// body flits still queued behind it in the source channel.
			src.nextIdx = int32(m.dst)
		}
		if fr.isTail {
			src.owner = -1
		}
	}
	dst := &s.chans[m.dst]
	if fr.isHead {
		dst.owner = fr.pkt.id
		dst.hop = hop
		if s.adaptive {
			fs := &s.flows[fr.pkt.flow]
			if fs.final[int32(m.dst)] {
				dst.nextIdx = -1
			} else {
				dst.nextIdx = adaptivePending
			}
		} else {
			ridx := s.flows[fr.pkt.flow].routeIdx
			if hop == len(ridx)-1 {
				dst.nextIdx = -1
			} else {
				dst.nextIdx = ridx[hop+1]
			}
		}
	}
	s.push(m.dst, fr)
}

func (s *Simulator) recordDelivery(p *packet) {
	fs := &s.stats.PerFlow[p.flow]
	fs.Delivered++
	if p.created >= s.cfg.WarmupCycles {
		lat := s.now - p.created
		s.stats.LatencyCount++
		s.stats.LatencySum += lat
		if lat > s.stats.LatencyMax {
			s.stats.LatencyMax = lat
		}
		fs.LatencySum += lat
		fs.LatencyN++
		if s.cfg.CollectLatencies {
			s.stats.Latencies = append(s.stats.Latencies, lat)
		}
	}
}

// flitsInFlight reports whether any channel buffer holds flits.
func (s *Simulator) flitsInFlight() bool {
	return len(s.active) > 0
}

// drained reports whether drain mode has delivered every budgeted packet.
func (s *Simulator) drained() bool {
	if s.cfg.PacketsPerFlow <= 0 {
		return false
	}
	for i := range s.flows {
		if s.flows[i].created < s.cfg.PacketsPerFlow || s.flows[i].qlen() > 0 {
			return false
		}
	}
	return s.live == 0
}

// Run advances the simulation until MaxCycles, a confirmed deadlock
// (unless recovery is enabled, which resolves deadlocks at runtime), or
// (in drain mode) full delivery, and returns the final statistics.
func (s *Simulator) Run() (*Stats, error) {
	return s.RunContext(context.Background())
}

// ctxCheckMask throttles the cooperative cancellation poll in the
// stepping loop: ctx.Done is consulted once every (mask+1) cycles so the
// per-cycle overhead is one integer AND on the hot path.
const ctxCheckMask = 1023

// RunContext is Run with cooperative cancellation and the epoch feed:
// the flit-stepping loop polls ctx every few hundred cycles and returns
// an error wrapping both nocerr.ErrCanceled and ctx.Err() when the
// context is done, and emits Config.OnEpoch snapshots every
// Config.EpochCycles cycles.
func (s *Simulator) RunContext(ctx context.Context) (*Stats, error) {
	done := ctx.Done()
	lr := s.startRun()
	for s.now < s.cfg.MaxCycles {
		if done != nil && s.now&ctxCheckMask == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("%w at cycle %d: %w", nocerr.ErrCanceled, s.now, ctx.Err())
			default:
			}
		}
		if !lr.stepOnce() {
			break
		}
	}
	s.finishStats()
	st := s.Stats()
	return &st, nil
}

// laneRun is the incremental state RunContext keeps on the stack between
// cycles — the epoch schedule — factored out so the batch engine can
// drive many simulators through the exact same per-cycle protocol in
// lockstep. Any change to run semantics belongs in stepOnce, where both
// the single-variant and batch paths pick it up.
type laneRun struct {
	s         *Simulator
	nextEpoch int64
	done      bool
}

// startRun begins the RunContext protocol without stepping.
func (s *Simulator) startRun() laneRun {
	var nextEpoch int64 = -1
	if s.cfg.OnEpoch != nil && s.cfg.EpochCycles > 0 {
		nextEpoch = s.now + s.cfg.EpochCycles
	}
	return laneRun{s: s, nextEpoch: nextEpoch}
}

// stepOnce advances the run by one cycle. It returns false when the run
// is over — horizon reached, deadlock confirmed, or drained — after which
// the caller finalizes with finishStats/Stats.
func (lr *laneRun) stepOnce() bool {
	if lr.s.now >= lr.s.cfg.MaxCycles {
		return false
	}
	lr.s.Step()
	return lr.endCycle()
}

// endCycle is the run protocol after a step: epoch emission, stall
// watchdog (recovery or deadlock confirmation), drain check. It returns
// false when the run is over.
func (lr *laneRun) endCycle() bool {
	s := lr.s
	if lr.nextEpoch >= 0 && s.now >= lr.nextEpoch {
		s.cfg.OnEpoch(EpochStats{
			Cycle:            s.now,
			InjectedPackets:  s.stats.InjectedPackets,
			DeliveredPackets: s.stats.DeliveredPackets,
			DeliveredFlits:   s.stats.DeliveredFlits,
			InFlight:         s.live,
		})
		lr.nextEpoch = s.now + s.cfg.EpochCycles
	}
	if s.now-s.lastProgress >= s.cfg.StallThreshold {
		if s.cfg.Recovery && s.tryRecover() {
			return true
		}
		pkts := s.confirmDeadlock()
		s.stats.Deadlocked = true
		s.stats.DeadlockCycle = s.now
		s.stats.DeadlockPackets = packetIDs(pkts)
		return false
	}
	if s.drained() {
		s.stats.Drained = true
		return false
	}
	return true
}

func (s *Simulator) finishStats() {
	if s.cfg.CollectLatencies {
		sort.Slice(s.stats.Latencies, func(i, j int) bool {
			return s.stats.Latencies[i] < s.stats.Latencies[j]
		})
	}
}
