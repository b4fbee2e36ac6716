package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/nocdr/nocdr/internal/traffic"
)

// corpusDigest is the SHA-256 of the corpus below. Synthesis is
// deterministic, so a change that moves one link, attachment, route
// channel or name of one design changes it; a faster synthesis must
// leave it as it is.
const corpusDigest = "71a70df62d51557360b0d0e8f2a00582d2c070df4c22048e5aff0499574d1daa"

// TestSynthesizeCorpusDigest hashes 1,500 synthesized designs: every
// paper benchmark at 1 to cores+1 switches under four neighbour budgets,
// and RandomKOut graphs over six sizes, three fan-outs and six seeds at
// six switch counts each. Per design it hashes the topology and switch
// names, every link's endpoints and VCs, every core's switch and every
// flow's route, so synthesis (and RandomKOut) must stay bit-identical.
func TestSynthesizeCorpusDigest(t *testing.T) {
	h := sha256.New()
	designs := 0
	add := func(g *traffic.Graph, opts Options) {
		t.Helper()
		res, err := Synthesize(g, opts)
		if err != nil {
			t.Fatalf("%s@%d (budget %d): %v", g.Name, opts.SwitchCount, opts.MaxNeighbors, err)
		}
		hashDesign(h, g, res)
		designs++
	}
	for _, budget := range []int{0, 2, 3, 6} {
		for _, g := range traffic.AllBenchmarks() {
			for s := 1; s <= g.NumCores()+1; s++ {
				add(g, Options{SwitchCount: s, MaxNeighbors: budget})
			}
		}
	}
	for _, n := range []int{8, 16, 33, 64, 128, 200} {
		for _, k := range []int{1, 3, 6} {
			for seed := int64(0); seed < 6; seed++ {
				g := traffic.RandomKOut(fmt.Sprintf("r%dx%d#%d", n, k, seed), n, k, seed)
				for _, s := range []int{2, 5, n / 4, n / 3, n / 2, n} {
					add(g, Options{SwitchCount: s})
				}
			}
		}
	}
	if designs != 1500 {
		t.Fatalf("hashed %d designs, want 1500", designs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusDigest {
		t.Errorf("corpus digest %s, want %s", got, corpusDigest)
	}
}

// hashDesign writes one synthesized design into h.
func hashDesign(h hash.Hash, g *traffic.Graph, res *Result) {
	var buf [8]byte
	num := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	top := res.Topology
	str(top.Name)
	num(top.NumSwitches())
	for _, sw := range top.Switches() {
		str(sw.Name)
	}
	num(top.NumLinks())
	for _, l := range top.Links() {
		num(int(l.From))
		num(int(l.To))
		num(l.VCs)
	}
	num(g.NumCores())
	for c := 0; c < g.NumCores(); c++ {
		sw, ok := top.SwitchOf(c)
		if !ok {
			sw = -1
		}
		num(int(sw))
	}
	num(g.NumFlows())
	for id := 0; id < g.NumFlows(); id++ {
		r := res.Routes.Route(id)
		num(r.FlowID)
		num(len(r.Channels))
		for _, c := range r.Channels {
			num(int(c.Link))
			num(c.VC)
		}
	}
}
