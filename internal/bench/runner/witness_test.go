package runner

import (
	"fmt"
	"testing"
)

// witnessCorpus names the cyclic adaptive cells of the nightly certified
// grid (make deep-certify), each with the verdict its pre-removal design
// must reach under the witness workload, plus acyclic controls that must
// skip the negative control. Every cyclic cell here once failed three-leg
// agreement: its witness saturated the cycle's flows but let their heads
// take any candidate path, and the worms routed around the cycle.
var witnessCorpus = []struct {
	benchmark, routing string
	seed               int64
	cyclic             bool // the union CDG is cyclic, so the witness must deadlock
}{
	{"mesh:8x8:bitrev", "min-adaptive", 0, true},
	{"mesh:8x8:bitrev", "min-adaptive", 1, true},
	{"torus:8", "west-first", 0, true},
	{"torus:8", "west-first", 1, true},
	{"torus:8", "north-last", 0, true},
	{"torus:8", "north-last", 1, true},
	{"torus:8", "negative-first", 0, true},
	{"torus:8", "negative-first", 1, true},
	{"torus:8", "odd-even", 0, true},
	{"torus:8", "odd-even", 1, true},
	{"torus:8", "min-adaptive", 0, true},
	{"torus:8", "min-adaptive", 1, true},
	{"mesh:8x8:bitrev", "odd-even", 0, false},
	{"mesh:8x8:transpose", "min-adaptive", 0, false},
}

// TestWitnessCorpusVerdicts keeps the adaptive witness honest at a short
// horizon: every cyclic cell's pre-removal design deadlocks, no
// post-removal design does, and all three legs agree.
func TestWitnessCorpusVerdicts(t *testing.T) {
	for _, c := range witnessCorpus {
		t.Run(fmt.Sprintf("%s/%s/seed%d", c.benchmark, c.routing, c.seed), func(t *testing.T) {
			rep, err := Run(Grid{
				Benchmarks: []string{c.benchmark},
				Routings:   []string{c.routing},
				Seeds:      []int64{c.seed},
			}, Options{Simulate: true, Certify: true, Sim: SimParams{Cycles: 2000}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != 1 {
				t.Fatalf("got %d results, want 1", len(rep.Results))
			}
			r := rep.Results[0]
			if r.Error != "" {
				t.Fatal(r.Error)
			}
			if r.InitialAcyclic == c.cyclic {
				t.Fatalf("union CDG cyclic = %v, corpus says %v", !r.InitialAcyclic, c.cyclic)
			}
			if r.Sim.PreRan != c.cyclic || r.Sim.PreDeadlock != c.cyclic {
				t.Errorf("witness ran = %v, deadlocked = %v at cycle %d; want %v",
					r.Sim.PreRan, r.Sim.PreDeadlock, r.Sim.PreDeadlockCycle, c.cyclic)
			}
			if r.Sim.PostDeadlock {
				t.Error("post-removal design deadlocked")
			}
			if !r.Certify.Agree {
				t.Errorf("three legs disagree: %s", r.Certify.Mismatch)
			}
		})
	}
}
