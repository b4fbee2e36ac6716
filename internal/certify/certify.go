// Package certify is the independent acyclicity checker: a deliberately
// small verifier that re-reads an emitted design bundle (the `nocexp
// design` / sweep-cell artifact), rebuilds the channel-dependency graph
// from the VC-assigned topology and route table from first principles,
// and emits a machine-checkable Certificate — a topological order as the
// acyclicity witness, or the smallest dependency cycle as the
// counterexample witness.
//
// Independence is the point. The rest of the system asserts deadlock
// freedom with the same graph code that computes removal
// (internal/cdg), so a bug there would silently self-certify. This
// package therefore imports NOTHING from the engine: no internal/cdg,
// no internal/core, no internal/route, no internal/topology — only the
// standard library and its own reading of the design JSON schema. A
// depguard test parses the package's import list and fails the build
// the moment anything non-stdlib creeps in. In the spirit of Verbeek & Schmaltz's formally
// verified deadlock-detection condition, the checker is small enough to
// audit in one sitting, and its certificates are validated a third time
// in CI by a jq/shell re-check that shares no code with Go at all.
package certify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// Version is the checker's schema/algorithm version, recorded in every
// certificate so a consumer can reject certificates from an older
// checker.
const Version = 1

// Salt names the checker build that produced a certificate. It doubles
// as the cache-poisoning guard: a stored certificate whose salt differs
// from the running checker's is discarded and recomputed, never reused.
const Salt = "nocdr-certify/1"

// Typed validation errors. Schema violations and impossible designs are
// errors (no certificate can be issued); a cyclic CDG is NOT an error —
// it yields a certificate carrying the cycle witness.
var (
	// ErrSchema marks malformed design JSON: not the bundle schema at
	// all, or missing its topology/routes sections.
	ErrSchema = errors.New("certify: malformed design")
	// ErrDanglingVC marks a route referencing a channel the topology
	// never provisioned (unknown link ID or VC index >= the link's VCs).
	ErrDanglingVC = errors.New("certify: route uses unprovisioned channel")
	// ErrFaultedLink marks a route crossing a link the fault mask
	// retired.
	ErrFaultedLink = errors.New("certify: route uses faulted link")
	// ErrWitness marks a certificate whose witness does not validate
	// against the design it names.
	ErrWitness = errors.New("certify: witness validation failed")
)

// Channel is one (physical link, virtual channel) pair — the checker's
// own spelling of the CDG vertex type.
type Channel struct {
	Link int `json:"link"`
	VC   int `json:"vc"`
}

// Certificate is the machine-checkable verdict for one design. Exactly
// one of TopoOrder (acyclic: every provisioned channel once, every
// dependency pointing forward) and Cycle (cyclic: the smallest
// dependency cycle, closing edge implicit) is present.
type Certificate struct {
	CheckerVersion int    `json:"checker_version"`
	Salt           string `json:"salt"`
	// DesignSHA256 is the SHA-256 of the exact design bytes certified,
	// binding the witness to one artifact.
	DesignSHA256 string `json:"design_sha256"`
	// Mode is what the caller claimed about the design: "pre" (expected
	// cyclic, pre-removal) or "post" (expected acyclic, post-removal).
	Mode string `json:"mode"`
	// Channels/Dependencies are the rebuilt CDG's vertex and edge counts.
	Channels     int `json:"channels"`
	Dependencies int `json:"dependencies"`
	// Acyclic is the checker's verdict.
	Acyclic   bool      `json:"acyclic"`
	TopoOrder []Channel `json:"topo_order,omitempty"`
	Cycle     []Channel `json:"cycle,omitempty"`
}

// design is the checker's own reading of the bundle schema: only the
// fields the CDG needs. Extra fields (grid shape, traffic, versioning)
// are deliberately ignored so the checker accepts both full
// reconfig.Design bundles and the minimal {topology, routes} documents
// the sweep runner emits per cell.
type design struct {
	Topology json.RawMessage `json:"topology"`
	Routes   json.RawMessage `json:"routes"`
}

type topologyDoc struct {
	Links []struct {
		ID  int `json:"id"`
		VCs int `json:"vcs"`
	} `json:"links"`
	Faults []int `json:"faults"`
}

// routesDoc covers both route schemas: a candidate route set
// ({"flows": [{flow, paths: [[{link, vc}, ...], ...]}]}) and a
// single-path table ({"routes": [{flow, channels: [{link, vc}, ...]}]}).
type routesDoc struct {
	Flows []struct {
		Flow  int         `json:"flow"`
		Paths [][]Channel `json:"paths"`
	} `json:"flows"`
	Routes []struct {
		Flow     int       `json:"flow"`
		Channels []Channel `json:"channels"`
	} `json:"routes"`
}

// cdgraph is the rebuilt channel-dependency graph: dense vertex IDs in
// (link, VC) order and a deduplicated adjacency list.
type cdgraph struct {
	channels []Channel
	index    map[Channel]int
	adj      [][]int
	edges    int
}

// rebuild parses the design bytes and reconstructs the CDG from first
// principles: one vertex per provisioned (link, VC) channel in link-major
// order, one edge per consecutive channel pair of any route path.
func rebuild(designJSON []byte) (*cdgraph, error) {
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchema, err)
	}
	if len(d.Topology) == 0 || len(d.Routes) == 0 {
		return nil, fmt.Errorf("%w: missing topology or routes section", ErrSchema)
	}
	var top topologyDoc
	if err := json.Unmarshal(d.Topology, &top); err != nil {
		return nil, fmt.Errorf("%w: topology: %v", ErrSchema, err)
	}
	if len(top.Links) == 0 {
		return nil, fmt.Errorf("%w: topology has no links", ErrSchema)
	}
	vcs := make(map[int]int, len(top.Links))
	for _, l := range top.Links {
		if l.VCs < 1 {
			return nil, fmt.Errorf("%w: link %d has %d VCs", ErrSchema, l.ID, l.VCs)
		}
		if _, dup := vcs[l.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate link ID %d", ErrSchema, l.ID)
		}
		vcs[l.ID] = l.VCs
	}
	faulted := make(map[int]bool, len(top.Faults))
	for _, id := range top.Faults {
		if _, ok := vcs[id]; !ok {
			return nil, fmt.Errorf("%w: fault names unknown link %d", ErrSchema, id)
		}
		faulted[id] = true
	}

	g := &cdgraph{index: make(map[Channel]int)}
	// Vertices in the file's link order, VC-minor — the canonical channel
	// enumeration the design schema implies (link IDs are dense and
	// serialized ascending).
	for _, l := range top.Links {
		for vc := 0; vc < l.VCs; vc++ {
			ch := Channel{Link: l.ID, VC: vc}
			g.index[ch] = len(g.channels)
			g.channels = append(g.channels, ch)
		}
	}
	g.adj = make([][]int, len(g.channels))

	var routes routesDoc
	if err := json.Unmarshal(d.Routes, &routes); err != nil {
		return nil, fmt.Errorf("%w: routes: %v", ErrSchema, err)
	}
	paths := make([][]Channel, 0, len(routes.Flows)+len(routes.Routes))
	flowOf := make([]int, 0, cap(paths))
	for _, f := range routes.Flows {
		for _, p := range f.Paths {
			paths = append(paths, p)
			flowOf = append(flowOf, f.Flow)
		}
	}
	for _, r := range routes.Routes {
		paths = append(paths, r.Channels)
		flowOf = append(flowOf, r.Flow)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: routes section has neither flows nor routes", ErrSchema)
	}

	seen := make(map[[2]int]bool)
	for pi, p := range paths {
		for i, ch := range p {
			n, ok := vcs[ch.Link]
			if !ok || ch.VC < 0 || ch.VC >= n {
				return nil, fmt.Errorf("%w: flow %d hop %d names link %d vc %d",
					ErrDanglingVC, flowOf[pi], i, ch.Link, ch.VC)
			}
			if faulted[ch.Link] {
				return nil, fmt.Errorf("%w: flow %d hop %d crosses faulted link %d",
					ErrFaultedLink, flowOf[pi], i, ch.Link)
			}
		}
		for i := 0; i+1 < len(p); i++ {
			key := [2]int{g.index[p[i]], g.index[p[i+1]]}
			if seen[key] {
				continue
			}
			seen[key] = true
			g.adj[key[0]] = append(g.adj[key[0]], key[1])
			g.edges++
		}
	}
	// Sort adjacency so the witness depends only on the edge set, never
	// on route scan order.
	for _, out := range g.adj {
		sortInts(out)
	}
	return g, nil
}

// sortInts is a tiny insertion sort: adjacency lists are short, and
// keeping the checker free of even sort.Ints keeps its footprint obvious.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sha256Hex is the design-binding digest.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
