// The certified-checker verification stage: the second of the three
// independent legs every sweep cell can carry. Leg one is structural
// (the removal engine's own acyclicity claim), leg three is empirical
// (the wormhole simulator's witness workloads, Options.Simulate); this
// file wires leg two — the emitted design re-checked from first
// principles by internal/certify, which shares no code with the engine.
// A cell's three legs must agree; any disagreement is recorded on the
// result, and the CLI gate turns it into a non-zero exit.

package runner

import (
	"encoding/json"
	"fmt"

	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// CertResult is the certified-checker leg of one cell: the independent
// checker's verdicts on the pre- and post-removal designs, the salt that
// produced them (the cache-poisoning guard), and the three-leg agreement
// verdict. Checker failures fold into Agree/Mismatch so one bad cell
// cannot sink a sweep.
type CertResult struct {
	// Salt is the checker build that issued these verdicts
	// (certify.Salt); cached cells whose stored salt differs are
	// re-certified, never reused.
	Salt string `json:"salt"`
	// PreAcyclic is the checker's verdict on the pre-removal design;
	// PreCycleLen is the counterexample witness length when cyclic.
	PreAcyclic  bool `json:"pre_acyclic"`
	PreCycleLen int  `json:"pre_cycle_len,omitempty"`
	// PostAcyclic is the checker's verdict on the post-removal design.
	PostAcyclic bool `json:"post_acyclic"`
	// PostSHA256 binds the post-removal verdict to the exact design
	// bytes the checker saw.
	PostSHA256 string `json:"post_sha256,omitempty"`
	// Agree is the three-leg agreement verdict: structural and certified
	// legs match, the post design certifies acyclic with a validated
	// witness, and — when the cell simulated — the empirical leg
	// concurs (certified-cyclic pre design deadlocks under its witness
	// workload, certified-acyclic post design does not).
	Agree    bool   `json:"agree"`
	Mismatch string `json:"mismatch,omitempty"`
}

// certEval is one design group's certification, computed once per
// design: the certificates depend only on the built design, while the
// final Agree verdict also consults each member cell's simulation.
type certEval struct {
	salt        string
	err         string
	preAcyclic  bool
	preCycleLen int
	postAcyclic bool
	postSHA     string
	// structural leg, for the agreement check.
	initialAcyclic bool
}

// certify runs the independent checker on the group's pre- and
// post-removal designs. Checker errors are folded into the eval — the
// cell records the disagreement instead of failing.
func (de *designEval) certify() *certEval {
	ce := &certEval{salt: certify.Salt, initialAcyclic: de.res.InitialAcyclic}
	pre, err := checkDesign(de.preTop, de.preTab, de.preSet, "pre")
	if err != nil {
		ce.err = fmt.Sprintf("pre design: %v", err)
		return ce
	}
	ce.preAcyclic = pre.Acyclic
	ce.preCycleLen = len(pre.Cycle)
	post, err := checkDesign(de.postTop, de.postTab, de.postSet, "post")
	if err != nil {
		ce.err = fmt.Sprintf("post design: %v", err)
		return ce
	}
	ce.postAcyclic = post.Acyclic
	ce.postSHA = post.DesignSHA256
	return ce
}

// withSim derives the member-facing CertResult: the design-level
// verdicts plus the agreement check against this cell's simulation
// outcome (nil when the cell did not simulate).
func (ce *certEval) withSim(sim *SimResult) *CertResult {
	c := &CertResult{
		Salt:        ce.salt,
		PreAcyclic:  ce.preAcyclic,
		PreCycleLen: ce.preCycleLen,
		PostAcyclic: ce.postAcyclic,
		PostSHA256:  ce.postSHA,
	}
	switch {
	case ce.err != "":
		c.Mismatch = ce.err
	case ce.preAcyclic != ce.initialAcyclic:
		c.Mismatch = fmt.Sprintf("pre design: checker says acyclic=%v, removal says %v",
			ce.preAcyclic, ce.initialAcyclic)
	case !ce.postAcyclic:
		c.Mismatch = "post design: checker found a dependency cycle after removal"
	case sim != nil && sim.PreRan && !ce.preAcyclic && !sim.PreDeadlock:
		c.Mismatch = "pre design: certified cycle witness did not deadlock in simulation"
	case sim != nil && sim.PostDeadlock:
		c.Mismatch = "post design: simulation deadlocked on a certified-acyclic design"
	default:
		c.Agree = true
	}
	return c
}

// checkDesign renders the (topology, routes) pair as the design-bundle
// JSON the checker reads — exactly one of tab/set is non-nil — and
// certifies it with a validated witness.
func checkDesign(top *topology.Topology, tab *route.Table, set *route.RouteSet, mode string) (*certify.Certificate, error) {
	topRaw, err := json.Marshal(top)
	if err != nil {
		return nil, err
	}
	var routesRaw []byte
	if set != nil {
		routesRaw, err = json.Marshal(set)
	} else {
		routesRaw, err = json.Marshal(tab)
	}
	if err != nil {
		return nil, err
	}
	doc, err := json.Marshal(struct {
		Topology json.RawMessage `json:"topology"`
		Routes   json.RawMessage `json:"routes"`
	}{topRaw, routesRaw})
	if err != nil {
		return nil, err
	}
	cert, err := certify.Check(doc, mode)
	if err != nil {
		return nil, err
	}
	// The witness must survive its own independent validation before the
	// verdict is trusted.
	if err := certify.Validate(cert, doc); err != nil {
		return nil, err
	}
	return cert, nil
}
