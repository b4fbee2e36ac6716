// Package core implements the paper's contribution: the deadlock-removal
// algorithm of Sections 3–4. Given a topology graph, and a route table, it
// repeatedly finds the smallest cycle in the channel dependency graph
// (Algorithm 1), locates the cheapest dependency to break in the forward
// and backward directions (Algorithm 2 and its mirror), and breaks the
// cycle by duplicating channel vertices — adding virtual channels on the
// corresponding physical links — and rerouting the flows that created the
// broken dependency onto the new channels. It terminates when the CDG is
// acyclic, which by Dally & Towles' condition makes the network deadlock-
// free under wormhole flow control.
package core

// Direction says which side of a broken dependency gets duplicated
// (Figures 5 and 6 of the paper).
type Direction int

const (
	// Forward duplicates vertices from where the flow enters the cycle
	// up to the removed edge (Figure 5).
	Forward Direction = iota
	// Backward duplicates vertices from the removed edge to where the
	// flow exits the cycle (Figure 6).
	Backward
)

// String returns "forward" or "backward".
func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// DirectionPolicy selects how Algorithm 1 chooses between the forward and
// backward break (step 7). The non-default policies exist for the
// ablation study in bench_test.go.
type DirectionPolicy int

const (
	// BestOfBoth compares forward and backward costs and takes the
	// cheaper, preferring forward on ties — the paper's policy.
	BestOfBoth DirectionPolicy = iota
	// ForwardOnly always breaks in the forward direction.
	ForwardOnly
	// BackwardOnly always breaks in the backward direction.
	BackwardOnly
)

// CycleSelection selects which cycle Algorithm 1 attacks next. The paper
// uses smallest-first; FirstFound exists for the ablation study.
type CycleSelection int

const (
	// SmallestFirst breaks the shortest CDG cycle first (the paper's
	// heuristic: a small cycle often shares edges with larger ones).
	SmallestFirst CycleSelection = iota
	// FirstFound breaks an arbitrary (but deterministic) cycle found by
	// depth-first search, regardless of length.
	FirstFound
)

// DefaultMaxIterations bounds the removal loop. Every iteration adds at
// least one VC, so on realistic SoC inputs the loop ends after a handful
// of breaks; the bound only exists to turn a (never observed) livelock
// into an error instead of a hang.
const DefaultMaxIterations = 10000

// Options configures Remove. The zero value is the paper's algorithm.
type Options struct {
	// MaxIterations caps the number of cycle breaks; 0 means
	// DefaultMaxIterations.
	MaxIterations int
	// VCLimit caps the total virtual channels the removal may add; 0
	// means unlimited. When a break would push AddedVCs past the limit,
	// Remove fails with an error wrapping nocerr.ErrVCLimit.
	VCLimit int
	// OnBreak, when non-nil, is invoked after every executed cycle break
	// with the record just appended to Result.Breaks. It runs on the
	// calling goroutine; a slow callback slows the removal loop.
	OnBreak func(BreakRecord)
	// Policy selects the break-direction rule; zero value is BestOfBoth.
	Policy DirectionPolicy
	// Selection selects the next cycle to break; zero value is
	// SmallestFirst.
	Selection CycleSelection
	// FullRebuild forces the original Algorithm 1 loop that rebuilds the
	// whole CDG and re-runs the global cycle search on every break. The
	// default (false) answers an input proven acyclic up front with
	// copies (cdg.ProveAcyclic), and otherwise maintains the CDG
	// incrementally across breaks and restricts cycle re-search to the
	// affected strongly connected component — same results, measurably
	// faster; the rebuild path, which runs the loop even on an acyclic
	// input, is kept for differential testing and benchmarking.
	FullRebuild bool
}

func (o Options) maxIterations() int {
	if o.MaxIterations <= 0 {
		return DefaultMaxIterations
	}
	return o.MaxIterations
}
