package wormhole

import "sort"

// confirmDeadlock builds the packet wait-for graph at the current cycle
// and returns the slots of the packets on a cyclic wait, ascending by
// packet ID. It is called after the progress watchdog fires; during a
// genuine global stall every in-flight packet's frontier is blocked on a
// channel held by another packet, so the graph must contain a cycle.
//
// Wait edges: packet P → packet Q when P's next transmission needs a
// channel currently owned by Q. Two blocking causes produce an edge:
//
//   - acquisition: P's head flit wants channel c with owner Q ≠ P;
//   - back-pressure: P's flit wants channel c owned by P itself but the
//     buffer is full — the stall then propagates along P's own worm to
//     P's head, which is covered by the first case, so self-edges are
//     skipped.
//
// This is the cold path: it runs once per confirmed stall, so it scans
// every channel rather than only the occupied ones, and it is the only
// place besides HeldChannels that maps slots to packet IDs.
func (s *Simulator) confirmDeadlock() []int32 {
	wait := make(map[int][]int)   // packet ID → packet IDs it waits on
	slotOf := make(map[int]int32) // every packet with an outgoing wait edge

	// waitOn adds P's edges toward the owners of next, or — for a head
	// still choosing at node — of every successor: the watchdog only fires
	// after a long global stall, so a successor that is free would already
	// have been taken.
	waitOn := func(p int32, next, node int32) {
		targets := []edge{{ch: next}}
		if next == pending {
			targets = s.tab.out(node)
		}
		for _, e := range targets {
			if o := s.chans[e.ch].owner; o != -1 && o != p {
				id := s.pkts[p].id
				wait[id] = append(wait[id], s.pkts[o].id)
				slotOf[id] = p
			}
		}
	}
	// Blocked buffer fronts; a final-hop front can always eject.
	for ci := range s.chans {
		if cs := &s.chans[ci]; cs.n > 0 && cs.next != -1 {
			waitOn(cs.owner, cs.next, cs.node)
		}
	}
	// Blocked injections (the queued packet holds nothing yet, but its
	// wait still participates in the graph; it can never be part of a
	// cycle because nothing waits on it).
	for i := range s.flows {
		if fs := &s.flows[i]; fs.qlen() > 0 && !fs.local {
			waitOn(fs.qfront(), fs.next, fs.src)
		}
	}

	// Find a cycle with an iterative DFS.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := make(map[int]int, len(wait))
	parent := make(map[int]int, len(wait))
	var cycleAt int = -1
	var cycleEnd int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		colour[v] = grey
		for _, w := range wait[v] {
			switch colour[w] {
			case grey:
				cycleAt, cycleEnd = w, v
				return true
			case white:
				parent[w] = v
				if dfs(w) {
					return true
				}
			}
		}
		colour[v] = black
		return false
	}
	starts := make([]int, 0, len(wait))
	for p := range wait {
		starts = append(starts, p)
	}
	sort.Ints(starts)
	for _, p := range starts {
		if colour[p] == white {
			if dfs(p) {
				break
			}
		}
	}
	if cycleAt == -1 {
		return nil
	}
	var cyc []int32
	for v := cycleEnd; ; v = parent[v] {
		// Every cycle node has an outgoing wait edge, so slotOf covers it.
		cyc = append(cyc, slotOf[v])
		if v == cycleAt {
			break
		}
	}
	sort.Slice(cyc, func(i, j int) bool { return s.pkts[cyc[i]].id < s.pkts[cyc[j]].id })
	return cyc
}

// packetIDs projects packet slots onto their IDs (for Stats reporting).
func (s *Simulator) packetIDs(slots []int32) []int {
	if len(slots) == 0 {
		return nil
	}
	ids := make([]int, len(slots))
	for i, slot := range slots {
		ids[i] = s.pkts[slot].id
	}
	return ids
}

// HeldChannels returns the channels currently owned by the given packet,
// in channel order. Useful for diagnostics and tests.
func (s *Simulator) HeldChannels(pkt int) []int {
	var out []int
	for ci, cs := range s.chans {
		if cs.owner != -1 && s.pkts[cs.owner].id == pkt {
			out = append(out, ci)
		}
	}
	return out
}
