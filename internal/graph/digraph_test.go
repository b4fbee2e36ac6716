package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	var g Digraph
	if len(g.succ) != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", len(g.succ), g.NumEdges())
	}
	if g.HasCycle() {
		t.Error("empty graph reports a cycle")
	}
	if c := g.ShortestCycle(); c != nil {
		t.Errorf("empty graph shortest cycle = %v", c)
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(4)
	if !g.AddEdge(0, 1) {
		t.Error("first AddEdge(0,1) returned false")
	}
	if g.AddEdge(0, 1) {
		t.Error("duplicate AddEdge(0,1) returned true")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge mismatch after single insert")
	}
}

func TestEnsureGrowsNodes(t *testing.T) {
	g := New(0)
	g.Ensure(5)
	if len(g.succ) != 6 {
		t.Errorf("node count = %d, want 6", len(g.succ))
	}
	if g.Succ(5) != nil || g.Pred(5) != nil {
		t.Error("fresh node has adjacency")
	}
}

func TestEnsureNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Ensure(-1) did not panic")
		}
	}()
	g := New(0)
	g.Ensure(-1)
}

func TestSuccPredConsistency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	if got := g.Succ(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Succ(0) = %v, want [1 2]", got)
	}
	if got := g.Pred(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Pred(1) = %v, want [0 2]", got)
	}
	if g.OutDegree(0) != 2 || len(g.Pred(1)) != 2 {
		t.Error("degree mismatch")
	}
	if g.Succ(-1) != nil || g.Succ(99) != nil {
		t.Error("out-of-range Succ not nil")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 0)
	g.AddEdge(0, 2)
	g.AddEdge(0, 1)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {2, 0}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Errorf("Edges()[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("mutating clone affected original")
	}
	if !c.HasEdge(0, 1) {
		t.Error("clone lost edge (0,1)")
	}
}

func TestHasCycleChain(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	if g.HasCycle() {
		t.Error("chain reports cycle")
	}
	g.AddEdge(4, 0)
	if !g.HasCycle() {
		t.Error("ring does not report cycle")
	}
}

func TestHasCycleSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	if !g.HasCycle() {
		t.Error("self-loop not detected as cycle")
	}
	if c := g.ShortestCycle(); len(c) != 1 || c[0] != 1 {
		t.Errorf("ShortestCycle = %v, want [1]", c)
	}
}

func TestShortestCyclePicksSmallest(t *testing.T) {
	g := New(10)
	// Long cycle 0→1→2→3→4→0 and short cycle 5→6→5.
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(4, 0)
	g.AddEdge(5, 6)
	g.AddEdge(6, 5)
	c := g.ShortestCycle()
	if len(c) != 2 {
		t.Fatalf("ShortestCycle = %v, want length 2", c)
	}
	if c[0] != 5 || c[1] != 6 {
		t.Errorf("ShortestCycle = %v, want [5 6]", c)
	}
}

func TestShortestCycleIsValidCycle(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	c := g.ShortestCycle()
	if len(c) != 3 {
		t.Fatalf("ShortestCycle length = %d, want 3", len(c))
	}
	verifyCycle(t, g, c)
}

func verifyCycle(t *testing.T, g *Digraph, c []int) {
	t.Helper()
	for i := range c {
		from, to := c[i], c[(i+1)%len(c)]
		if !g.HasEdge(from, to) {
			t.Errorf("cycle %v: missing edge %d→%d", c, from, to)
		}
	}
}

func TestShortestCycleAcyclicDAG(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if c := g.ShortestCycle(); c != nil {
		t.Errorf("DAG shortest cycle = %v, want nil", c)
	}
	if g.HasCycle() {
		t.Error("DAG reports cycle")
	}
}

func TestSCCs(t *testing.T) {
	g := New(8)
	// SCC {0,1,2}, SCC {3,4}, singletons 5, 6 (self-loop), 7.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	g.AddEdge(4, 5)
	g.AddEdge(6, 6)
	g.Ensure(7)
	comps := g.SCCs()
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 3 {
		t.Errorf("SCC size histogram = %v, want one 3, one 2, three 1", sizes)
	}
}

func TestCyclicNodes(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	g.AddEdge(4, 4)
	got := g.CyclicNodes()
	want := []int{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("CyclicNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("CyclicNodes = %v, want %v", got, want)
			break
		}
	}
}

func TestCountCycles(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(3, 3)
	if n := g.CountCycles(0); n != 3 {
		t.Errorf("CountCycles = %d, want 3", n)
	}
	if n := g.CountCycles(2); n < 2 {
		t.Errorf("CountCycles(limit=2) = %d, want >= 2", n)
	}
}

// Property: ShortestCycle returns a real cycle whose closing edge exists,
// and returns nil iff HasCycle is false.
func TestShortestCycleAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		g.Ensure(n - 1)
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		c := g.ShortestCycle()
		if (c == nil) == g.HasCycle() {
			return false
		}
		if c == nil {
			return true
		}
		for i := range c {
			if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
				return false
			}
		}
		// No repeated vertices within the cycle.
		seen := map[int]bool{}
		for _, v := range c {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: HasCycle is true iff some SCC is non-trivial (more than one
// node, or one node with a self-loop), and SCCs partition the node set.
func TestTopoSCCConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		g := New(n)
		g.Ensure(n - 1)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		seen := make([]bool, n)
		total := 0
		cyclic := false
		for _, comp := range g.SCCs() {
			cyclic = cyclic || len(comp) > 1 || g.HasEdge(comp[0], comp[0])
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n && cyclic == g.HasCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// without returns a copy of g minus the edge from→to.
func without(g *Digraph, from, to int) *Digraph {
	h := New(len(g.succ))
	h.Ensure(len(g.succ) - 1)
	for _, e := range g.Edges() {
		if e != [2]int{from, to} {
			h.AddEdge(e[0], e[1])
		}
	}
	return h
}

// Property: dropping the closing edge of a shortest cycle one cycle at a
// time always ends in an acyclic graph (sanity of ShortestCycle on the
// graphs such breaks leave behind).
func TestRemoveShortestCycleEdgeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n)
		g.Ensure(n - 1)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		for guard := 0; guard < 10*n; guard++ {
			c := g.ShortestCycle()
			if c == nil {
				return !g.HasCycle()
			}
			g = without(g, c[len(c)-1], c[0])
		}
		return !g.HasCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShortestCycleSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := New(2000)
	g.Ensure(1999)
	for i := 0; i < 6000; i++ {
		g.AddEdge(rng.Intn(2000), rng.Intn(2000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestCycle()
	}
}

func TestShortestCycleThrough(t *testing.T) {
	g := New(8)
	// Cycle A: 0→1→2→0; cycle B: 3→4→3; node 5 on no cycle but reaches A.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(3, 4)
	g.AddEdge(4, 3)
	g.AddEdge(5, 0)
	c := g.ShortestCycleThrough(0)
	if len(c) != 3 || c[0] != 0 {
		t.Errorf("ShortestCycleThrough(0) = %v, want 3-cycle starting at 0", c)
	}
	verifyCycle(t, g, c)
	if c := g.ShortestCycleThrough(3); len(c) != 2 || c[0] != 3 {
		t.Errorf("ShortestCycleThrough(3) = %v, want [3 4]", c)
	}
	if c := g.ShortestCycleThrough(5); c != nil {
		t.Errorf("node on no cycle returned %v", c)
	}
	if c := g.ShortestCycleThrough(99); c != nil {
		t.Error("out-of-range node returned a cycle")
	}
	g.AddEdge(6, 6)
	if c := g.ShortestCycleThrough(6); len(c) != 1 || c[0] != 6 {
		t.Errorf("self-loop cycle = %v, want [6]", c)
	}
}

func TestShortestCycleThroughPicksLocalShortest(t *testing.T) {
	g := New(6)
	// Node 0 lies on a 4-cycle and a 2-cycle; the probe must return the 2-cycle.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	g.AddEdge(0, 4)
	g.AddEdge(4, 0)
	c := g.ShortestCycleThrough(0)
	if len(c) != 2 {
		t.Errorf("ShortestCycleThrough(0) = %v, want the 2-cycle", c)
	}
}
