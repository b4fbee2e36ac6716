package wormhole

// DISHA-style progressive deadlock recovery (Anjan & Pinkston), the
// scheme the paper's *static* method is the design-time alternative to.
// Instead of provisioning VCs so deadlock cannot form, a recovery-enabled
// router lets deadlocks happen, detects them, and drains one deadlocked
// packet at a time through a dedicated deadlock-free recovery lane
// guarded by a network-wide token.
//
// The model here abstracts the recovery lane's microarchitecture: when
// the detector confirms a cyclic wait, the token is granted to the
// lowest-numbered packet on the cycle, the packet's held channels are
// released (its worm is pulled out of the normal network), and it is
// delivered after the time its remaining flits need to cross its
// remaining hops one flit per cycle through the lane — the same
// first-order timing a real one-flit-per-router recovery path gives.
// Only one packet recovers at a time, exactly like the DISHA token.

// recovery tracks the in-flight recovery, if any.
type recovery struct {
	slot    int32 // the recovering packet
	deliver int64 // cycle at which the packet completes
}

// tryRecover is called when the progress watchdog fires with recovery
// enabled. It confirms the deadlock, grants the token to one packet and
// schedules its lane delivery. It reports whether a recovery started.
func (s *Simulator) tryRecover() bool {
	if s.rec != nil {
		// Token busy: the network is stalled behind an in-flight
		// recovery; nothing to do until it completes.
		return false
	}
	cyc := s.confirmDeadlock()
	if len(cyc) == 0 {
		return false
	}
	slot := cyc[0] // lowest ID: the deterministic token grant
	p := &s.pkts[slot]
	// Pull the worm out of the normal network, freeing its channels.
	for ci := range s.chans {
		if s.chans[ci].owner == slot {
			s.clearChannel(ci)
		}
	}
	// Flits still queued at the source keep injecting through the lane
	// as well; time the drain as (remaining flits) + (remaining hops).
	// Adaptive flows bound the hop count by their longest candidate path.
	remFlits := int64(p.flits - p.ejected)
	remHops := int64(s.flows[p.flow].maxLen)
	s.rec = &recovery{slot: slot, deliver: s.now + remFlits + remHops}
	// If the packet was mid-injection, take it off the source queue so
	// the next packet of the flow can start once the lane drain ends.
	fs := &s.flows[p.flow]
	if fs.qlen() > 0 && fs.qfront() == slot {
		s.stats.InjectedFlits += int64(p.flits - p.injected)
		p.injected = p.flits
		s.dequeue(p.flow)
	}
	s.stats.Recoveries++
	s.lastProgress = s.now
	return true
}

// stepRecovery completes an in-flight recovery whose drain time elapsed.
func (s *Simulator) stepRecovery() {
	if s.rec == nil || s.now < s.rec.deliver {
		return
	}
	p := &s.pkts[s.rec.slot]
	s.stats.DeliveredFlits += int64(p.flits - p.ejected)
	s.stats.DeliveredPackets++
	s.stats.RecoveredPackets++
	s.recordDelivery(p)
	s.live--
	s.free = append(s.free, s.rec.slot)
	s.rec = nil
	s.lastProgress = s.now
}
