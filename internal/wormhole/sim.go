package wormhole

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// packet is one in-flight wormhole packet. Packets live in a per-lane
// slot slice; everything else refers to them by slot.
type packet struct {
	id      int
	flow    int
	flits   int // total length
	created int64

	injected int // flits that have left the source queue (0..flits)
	ejected  int // flits that have left the network at the destination
}

// flitRef is one buffered flit: its packet's slot and its position in
// the worm. It holds no pointer, so storing one in a ring costs the
// garbage collector nothing.
type flitRef struct {
	slot   int32
	isHead bool
	isTail bool
}

// pending marks a head that has not committed to its next channel: it
// chooses among its node's successors every cycle until one is
// admissible, and its departure freezes the choice for the body flits.
const pending = -2

// chanState is the runtime state of one channel: its downstream FIFO (a
// ring of BufferDepth slots in the lane's flit block) and owning packet.
// Invariant: the buffer holds only the owner's flits, and owner == -1
// exactly when the buffer is empty and no worm spans the channel.
type chanState struct {
	head  int32 // ring index of the front flit
	n     int32 // occupied slots
	owner int32 // packet slot, -1 if free
	node  int32 // owner's transition-table node at this channel (valid while owner != -1)
	next  int32 // owner's next channel, -1 at the final hop, pending while undecided
}

// flowState tracks a flow's injection side. The fields arbitration reads
// come first, so they share a cache line.
type flowState struct {
	id int
	// src is the flow's source node in the transition table; its
	// successors are the permitted first channels.
	src int32
	// next is the queue front's first channel, committed like
	// chanState.next: the only first channel, the one its head took, or
	// pending while the head may still choose.
	next     int32
	queue    []int32 // slots of pending packets; queue[qhead:] are live
	qhead    int     // consumed prefix, reclaimed when the queue empties
	probBits uint64  // per-cycle creation probability, scaled to [0, 2^63]
	bw       float64 // declared bandwidth, kept so lanes can rescale probBits per load
	flits    int     // packet length, hoisted out of the creation loop
	local    bool    // same-switch flow: packets bypass the fabric
	maxLen   int     // longest candidate path in hops
	created  int     // packets created so far (for PacketsPerFlow budgeting)
}

// qlen returns the number of queued packets.
func (fs *flowState) qlen() int { return len(fs.queue) - fs.qhead }

// qfront returns the slot of the packet next to inject; the caller checks
// qlen > 0.
func (fs *flowState) qfront() int32 { return fs.queue[fs.qhead] }

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
	rngState uint64                   // splitmix64 state driving the injection process
	idx      map[topology.Channel]int // channel → dense index (construction only)
	tab      *table                   // the design's transition table, shared by every lane
	chans    []chanState
	flits    []flitRef // every channel's ring, BufferDepth slots each
	depth    int32     // Config.BufferDepth
	flows    []flowState
	pkts     []packet // packet slots
	free     []int32  // slots of delivered packets, recycled by createPackets
	live     int      // packets currently in the fabric (injected, not yet delivered)
	nextPkt  int

	// Dense per-channel metadata, indexed like chans.
	chanLink []int32 // physical link of each channel
	chanVC   []int32 // VC index of each channel
	// linkOcc counts flits buffered across all VCs of each link — the
	// LeastCongested congestion signal. NewAdaptive allocates (and the
	// engine maintains) it only under that policy, so FirstFree runs and
	// routes pay nothing for it.
	linkOcc []int32

	// Per-step scratch, reused to keep the steady-state loop allocation-free.
	occupied  []uint64 // bit ci set iff channel ci holds flits, walked in index order
	nOccupied int      // set bits in occupied
	ready     []int32  // flows with a non-empty source queue (the worklist)
	readyPos  []int32  // flow → position in ready, -1 if absent
	moves     []move   // this cycle's decided moves
	// This cycle's transfer candidates, chained per destination link:
	// linkHead[l] is the link's latest candidate (-1 if none), candNext[i]
	// the one before candidate i.
	cands    []move
	candNext []int32
	linkHead []int32
	touched  []int32 // links with candidates this cycle
	sorted   []cand  // a contended link's candidates, by key
	linkRR   []int   // per-link round-robin counters

	now          int64
	lastProgress int64
	stats        Stats
	// latHist counts recorded latencies by cycles (Config.CollectLatencies):
	// latHist[l] samples of latency l, long enough for the largest so far.
	// Stats expands it into the ascending Latencies slice.
	latHist []int64
	rec     *recovery // in-flight DISHA-style recovery, if any

	// maxBW is the bandwidth normalizer probBits was scaled with, kept so
	// batch lanes recompute per-load probabilities with the exact same
	// float expression the constructor used (byte-identical injection).
	maxBW float64
}

// newSkeleton builds the per-channel metadata and one lane's mutable
// state, shared by both constructors.
func newSkeleton(top *topology.Topology, g *traffic.Graph, cfg Config) (*Simulator, error) {
	// Every batch lane carved off this simulator has its channels and
	// its depth, so this sizes them all.
	if err := CheckConfig(cfg, top.TotalVCs()); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	channels := top.Channels()
	s := &Simulator{
		idx:      make(map[topology.Channel]int, len(channels)),
		tab:      &table{succOff: []int32{0}},
		chanLink: make([]int32, len(channels)),
		chanVC:   make([]int32, len(channels)),
	}
	for i, ch := range channels {
		s.idx[ch] = i
		s.chanLink[i] = int32(ch.Link)
		s.chanVC[i] = int32(ch.VC)
	}
	for _, f := range g.Flows() {
		if f.Bandwidth > s.maxBW {
			s.maxBW = f.Bandwidth
		}
	}
	if s.maxBW == 0 {
		s.maxBW = 1
	}
	s.initLane(cfg, top.NumLinks(), g.NumFlows())
	return s, nil
}

// initLane allocates a lane's mutable state for cfg: channel rings in one
// flat flit block, channel bits, flow worklist, candidate chains, stats.
func (s *Simulator) initLane(cfg Config, links, flows int) {
	n := len(s.chanLink)
	s.cfg = cfg
	s.rngState = uint64(cfg.Seed)
	s.depth = int32(cfg.BufferDepth)
	s.chans = make([]chanState, n)
	s.flits = make([]flitRef, n*cfg.BufferDepth)
	for i := range s.chans {
		s.chans[i].owner = -1
	}
	s.occupied = make([]uint64, (n+63)/64)
	s.linkHead = make([]int32, links)
	for l := range s.linkHead {
		s.linkHead[l] = -1
	}
	s.linkRR = make([]int, links)
	s.readyPos = make([]int32, flows)
	for i := range s.readyPos {
		s.readyPos[i] = -1
	}
	s.stats.PerFlow = make([]FlowStats, flows)
}

// addFlow registers flow f with its candidate paths as dense channel
// indices: its nodes go into the transition table, its injection state
// into s.flows.
func (s *Simulator) addFlow(f traffic.Flow, paths [][]int32) error {
	src, err := s.tab.addFlow(f.ID, paths)
	if err != nil {
		return err
	}
	fs := flowState{
		id:       f.ID,
		src:      src,
		next:     s.tab.enter[src],
		probBits: probBits(s.cfg.LoadFactor, f.Bandwidth, s.maxBW),
		bw:       f.Bandwidth,
		flits:    f.PacketFlits,
		local:    len(s.tab.out(src)) == 0,
	}
	for _, p := range paths {
		fs.maxLen = max(fs.maxLen, len(p))
	}
	s.flows = append(s.flows, fs)
	return nil
}

// New builds a simulator for a routed workload. Every flow must have a
// route whose channels are provisioned (and not faulted) in the
// topology. The inputs are never mutated, neither here nor by Step/Run.
// A route is a one-path transition table, so this engine and NewAdaptive
// step the same way.
func New(top *topology.Topology, g *traffic.Graph, tab *route.Table, cfg Config) (*Simulator, error) {
	cfg = cfg.withDefaults()
	s, err := newSkeleton(top, g, cfg)
	if err != nil {
		return nil, err
	}
	for _, f := range g.Flows() {
		r := tab.Route(f.ID)
		if r == nil {
			return nil, fmt.Errorf("wormhole: flow %d has no route", f.ID)
		}
		path := make([]int32, len(r.Channels))
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
			path[hopIdx] = int32(ci)
		}
		if err := s.addFlow(f, [][]int32{path}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// enqueue appends a packet to flow fi's source queue, maintaining the
// ready worklist.
func (s *Simulator) enqueue(fi int, slot int32) {
	fs := &s.flows[fi]
	if fs.qlen() == 0 {
		// Reclaim the consumed prefix so steady-state queue storage is
		// reused instead of creeping through fresh allocations.
		fs.queue = fs.queue[:0]
		fs.qhead = 0
		s.readyPos[fi] = int32(len(s.ready))
		s.ready = append(s.ready, int32(fi))
	}
	fs.queue = append(fs.queue, slot)
}

// dequeue removes flow fi's front packet, maintaining the ready worklist.
// The next packet's head has not chosen a first channel yet.
func (s *Simulator) dequeue(fi int) {
	fs := &s.flows[fi]
	fs.next = s.tab.enter[fs.src]
	fs.qhead++
	if fs.qhead >= 16 {
		// Compact in place so a queue that never fully drains (sustained
		// load) still keeps its backing array bounded at O(cap + 16)
		// instead of growing one slot per delivered packet.
		n := copy(fs.queue, fs.queue[fs.qhead:])
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

// Stats returns a snapshot of the statistics so far. With
// Config.CollectLatencies, Latencies is a fresh slice of LatencyCount
// samples in ascending order (nil while there are none).
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Cycles = s.now
	if st.LatencyCount > 0 && s.cfg.CollectLatencies {
		st.Latencies = make([]int64, 0, st.LatencyCount)
		for lat, n := range s.latHist {
			for ; n > 0; n-- {
				st.Latencies = append(st.Latencies, int64(lat))
			}
		}
	}
	return st
}

// move describes one flit transmission decided this cycle.
type move struct {
	// src: source buffer channel index, or -1 for injection from flow fl.
	src int32
	fl  int32
	// dst: destination channel index, or -1 for ejection.
	dst int32
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
		id := s.nextPkt
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
			continue
		}
		slot := s.newPacket()
		s.pkts[slot] = packet{id: id, flow: fs.id, flits: fs.flits, created: s.now}
		s.live++
		s.enqueue(i, slot)
		s.stats.InjectedPackets++
	}
}

// probBits scales a flow's per-cycle creation probability at load to the
// [0, 2^63] range the injection draw compares against. Every lane of
// every constructor computes it with this one float expression, so a
// batch lane injects exactly like an independent simulator.
func probBits(load, bw, maxBW float64) uint64 {
	return uint64(load * bw / maxBW * (1 << 63))
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

// newPacket takes a packet slot off the free list, or grows the slots.
func (s *Simulator) newPacket() int32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	s.pkts = append(s.pkts, packet{})
	return int32(len(s.pkts) - 1)
}

// push appends a flit to channel ci's FIFO, marking the channel
// occupied. The caller must have established buffer space.
func (s *Simulator) push(ci int32, fr flitRef) {
	cs := &s.chans[ci]
	if cs.n == 0 {
		s.occupied[ci>>6] |= 1 << (ci & 63)
		s.nOccupied++
	}
	pos := cs.head + cs.n
	if pos >= s.depth {
		pos -= s.depth
	}
	s.flits[ci*s.depth+pos] = fr
	cs.n++
	if s.linkOcc != nil {
		s.linkOcc[s.chanLink[ci]]++
	}
}

// pop removes and returns channel ci's front flit, clearing its occupied
// bit when the buffer empties.
func (s *Simulator) pop(ci int32) flitRef {
	cs := &s.chans[ci]
	fr := s.flits[ci*s.depth+cs.head]
	cs.head++
	if cs.head == s.depth {
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
	n := int(cs.n)
	if n > 0 {
		if s.linkOcc != nil {
			s.linkOcc[s.chanLink[ci]] -= cs.n
		}
		s.deactivate(int32(ci))
	}
	cs.head, cs.n = 0, 0
	cs.owner = -1
	return n
}

// deactivate clears channel ci's occupied bit; its buffer just emptied.
func (s *Simulator) deactivate(ci int32) {
	s.occupied[ci>>6] &^= 1 << (ci & 63)
	s.nOccupied--
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

// keyOf is a move's candidate key; only contended links compute it.
func (s *Simulator) keyOf(m move) int64 {
	if m.src == -1 {
		return candKey(s.chanVC[m.dst], 1, len(s.chans)+int(m.fl))
	}
	return candKey(s.chanVC[m.dst], 0, int(m.src))
}

// arbitrate collects at most one move per physical link plus unlimited
// ejections, all judged against start-of-cycle state. It walks the
// occupied channels' bits in index order and the ready worklist, and
// reads only channel and flow state, never a flit, so the steady-state
// cycle does no map lookups and no allocation.
func (s *Simulator) arbitrate() []move {
	moves, chans, depth := s.moves[:0], s.chans, s.depth
	s.cands, s.candNext, s.touched = s.cands[:0], s.candNext[:0], s.touched[:0]
	// One pass over occupied channels yields both ejections (final-hop
	// buffers always drain one flit) and transfer candidates. A committed
	// next channel is admissible when it has space and is free or already
	// the owner's: body flits only ever follow into a channel their own
	// packet holds, so a free one means the head is at the front.
	for w, word := range s.occupied {
		for ; word != 0; word &= word - 1 {
			ci := int32(w<<6 | bits.TrailingZeros64(word))
			cs := &chans[ci]
			ni := cs.next
			switch {
			case ni == -1:
				moves = append(moves, move{src: ci, dst: -1})
				continue
			case ni == pending:
				// FIFO order guarantees the front flit is the head; the
				// choice only commits when the move lands.
				if ni = s.choose(cs.node); ni < 0 {
					continue
				}
			default:
				dst := &chans[ni]
				if dst.n >= depth || dst.owner != cs.owner && dst.owner != -1 {
					continue
				}
			}
			s.addCand(move{src: ci, dst: ni})
		}
	}
	// Injection candidates, off the ready worklist, by the same rule: a
	// blocked flow (full or foreign-owned first channel — the common case
	// under load) bails before touching its queue.
	for _, fi := range s.ready {
		fs := &s.flows[fi]
		ni := fs.next
		if ni == pending {
			if ni = s.choose(fs.src); ni < 0 {
				continue
			}
		} else {
			dst := &chans[ni]
			if dst.n >= depth || dst.owner != -1 && dst.owner != fs.qfront() {
				continue
			}
		}
		s.addCand(move{src: -1, fl: int32(fs.id), dst: ni})
	}
	// One winner per link. Winners on different links are independent
	// and a contended link sorts its candidates by unique keys, so the
	// outcome depends on neither collection nor link order.
	for _, l := range s.touched {
		i := s.linkHead[l]
		s.linkHead[l] = -1
		if s.candNext[i] == -1 {
			moves = append(moves, s.cands[i])
			continue
		}
		sorted := s.sorted[:0]
		for ; i != -1; i = s.candNext[i] {
			sorted = append(sorted, cand{m: s.cands[i], key: s.keyOf(s.cands[i])})
		}
		sortCands(sorted)
		moves = append(moves, sorted[s.linkRR[l]%len(sorted)].m)
		s.linkRR[l]++
		s.sorted = sorted
	}
	s.moves = moves
	return moves
}

// addCand chains a transfer candidate onto its destination's physical
// link.
func (s *Simulator) addCand(m move) {
	l := s.chanLink[m.dst]
	if s.linkHead[l] == -1 {
		s.touched = append(s.touched, l)
	}
	s.candNext = append(s.candNext, s.linkHead[l])
	s.linkHead[l] = int32(len(s.cands))
	s.cands = append(s.cands, m)
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

// apply executes one move decided by arbitrate. Moves within a cycle
// commute: every source channel appears in at most one move, every
// destination channel gains at most one flit, and admissibility was
// judged against start-of-cycle state.
func (s *Simulator) apply(m move) {
	if m.dst == -1 {
		// Ejection.
		fr := s.pop(m.src)
		p := &s.pkts[fr.slot]
		p.ejected++
		s.stats.DeliveredFlits++
		if fr.isTail {
			s.chans[m.src].owner = -1
			s.recordDelivery(p)
			s.live--
			s.stats.DeliveredPackets++
			s.free = append(s.free, fr.slot)
		}
		return
	}
	var fr flitRef
	var from int32 // the table node the flit leaves
	if m.src == -1 {
		// Injection: consume the next flit of the flow's head packet.
		fs := &s.flows[m.fl]
		fr.slot = fs.qfront()
		p := &s.pkts[fr.slot]
		fr.isHead, fr.isTail = p.injected == 0, p.injected == p.flits-1
		p.injected++
		s.stats.InjectedFlits++
		from = fs.src
		if fr.isHead {
			// Commit the head's injection choice so body flits follow.
			fs.next = m.dst
		}
		if fr.isTail {
			s.dequeue(int(m.fl))
		}
	} else {
		src := &s.chans[m.src]
		from = src.node
		fr = s.pop(m.src)
		if fr.isHead {
			// The head's departure freezes its choice for the body flits
			// still queued behind it in the source channel.
			src.next = m.dst
		}
		if fr.isTail {
			src.owner = -1
		}
	}
	if fr.isHead {
		dst := &s.chans[m.dst]
		dst.owner = fr.slot
		dst.node = s.tab.step(from, m.dst)
		dst.next = s.tab.enter[dst.node]
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
			if lat >= int64(len(s.latHist)) {
				s.latHist = append(s.latHist, make([]int64, lat+1-int64(len(s.latHist)))...)
			}
			s.latHist[lat]++
		}
	}
}

// flitsInFlight reports whether any channel buffer holds flits.
func (s *Simulator) flitsInFlight() bool {
	return s.nOccupied > 0
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
	st := s.Stats()
	return &st, nil
}

// laneRun is the incremental state RunContext keeps on the stack between
// cycles — the epoch schedule. RunContext and the reference-stepper tests
// drive a run through the same startRun, stepOnce and endCycle, so any
// change to run semantics belongs there, where both pick it up.
type laneRun struct {
	s         *Simulator
	nextEpoch int64
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
// the caller reads Stats.
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
		s.stats.DeadlockPackets = s.packetIDs(pkts)
		return false
	}
	if s.drained() {
		s.stats.Drained = true
		return false
	}
	return true
}
