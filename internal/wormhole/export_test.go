package wormhole

import "testing"

// Runs reports how many lanes of the batch run; the others report a copy
// of an earlier lane's run.
func (b *Batch) Runs() int {
	n := 0
	for i, run := range b.runOf {
		if run == i {
			n++
		}
	}
	return n
}

// RunChecked runs sim to completion as Run does, checking the engine's
// invariants (non-strict: a worm may span a channel that has just
// drained) after every cycle, and returns the run's stats.
func RunChecked(t *testing.T, sim *Simulator) *Stats {
	t.Helper()
	lr := sim.startRun()
	for more := true; more; {
		more = lr.stepOnce()
		checkInvariants(t, sim, int(sim.now), false)
	}
	st := sim.Stats()
	return &st
}
