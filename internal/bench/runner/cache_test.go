package runner

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/fabric"
)

// oracleCellKey is the reference cell-key derivation: json.Marshal of
// the cell's whole cellKeyParts, hashed by fabric.Key. The sweep's
// encoder must reproduce it byte for byte, or disk caches, fleets of
// mixed builds and the benchmark's key probe stop matching.
func oracleCellKey(j Job, opts Options, loads []float64) string {
	p := cellKeyParts{
		Job:      j,
		Policy:   int(opts.Policy),
		VCLimit:  opts.VCLimit,
		Simulate: opts.Simulate,
		MaxPaths: opts.maxPaths,
		Certify:  opts.Certify,
	}
	if opts.Simulate {
		p.Sim = opts.Sim.withDefaults()
		p.Loads = loads
	}
	return fabric.Key("sweep-cell", p)
}

// keyCase is one cell under one sweep's options.
type keyCase struct {
	j     Job
	opts  Options
	loads []float64
}

func keyCases() []keyCase {
	limited := Options{Policy: core.BackwardOnly, VCLimit: 7, Certify: true}
	limited.maxPaths = 5
	sim := Options{Simulate: true, Certify: true, VCLimit: 4,
		Sim: SimParams{Cycles: 5000, Load: 3e-8, BufferDepth: 4, Seed: -2, Adaptive: 1}}
	cases := []keyCase{
		{Job{Benchmark: "D36_8", SwitchCount: 14, Policy: "smallest"}, Options{}, nil},
		{Job{Benchmark: "mesh:4x4:transpose", SwitchCount: 16, Routing: "west-first", Faults: 1, Policy: "smallest", Seed: 3}, sim, []float64{3e-8, 0.5, 1, 3e22}},
		{Job{Benchmark: "a<b&c>\"\\\x01 \xff", SwitchCount: -3, Routing: "\t", Faults: -1, Policy: "first", Seed: math.MinInt64}, limited, []float64{0.25}},
		{Job{}, Options{}, nil},
		{Job{Benchmark: "torus:8", SwitchCount: 64, Routing: "odd-even", Faults: 3, Policy: "first", Seed: math.MaxInt64}, Options{Simulate: true}, nil},
	}
	for _, s := range []string{"<", ">", "&", `"`, `\`, "\x00", "\x1f", "\x7f", " ", " ", "\xc3\x28", "é", "~ !#$%'()*+,-./:;=?@[]^_`{|}"} {
		cases = append(cases,
			keyCase{Job{Benchmark: s, SwitchCount: 1, Routing: s, Policy: s, Seed: 1}, Options{}, nil},
			keyCase{Job{Benchmark: "rand:8x2" + s, Policy: "smallest"}, sim, nil})
	}
	for _, l := range []float64{3e-8, 1e-7, 0.1, 1.0 / 3, 1, 1e20, 1e21, 3e22, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1)} {
		o := sim
		o.Sim.Load = l
		cases = append(cases, keyCase{Job{Benchmark: "D26_media", SwitchCount: 8, Policy: "smallest"}, o, []float64{l, 1}})
	}
	return cases
}

// TestCellKeyMatchesOracle pins the sweep's cell keys to the
// json.Marshal derivation over strings that need escaping, simulation
// parameters and loads across float magnitudes (and the NaN and
// infinite loads that do not marshal, which fabric.Key folds into the
// address), and every option that participates; the golden rows were
// recorded from that derivation before the sweep encoder existed.
func TestCellKeyMatchesOracle(t *testing.T) {
	cases := keyCases()
	golden := []string{
		"3ed6bacbf98dec4ebc1ebafc80917bf875f470eba07c5b67791801f1f2491732",
		"cba3022f697d0f87b10ab3f1b6e8d2eb8d1a141d88e30f62781342e05f327b99",
		"c65827b7251849b3b603e2475061f20d4c1780e043b7355495b8a9baf1fe1473",
	}
	for i, want := range golden {
		if got := CellKey(cases[i].j, cases[i].opts, cases[i].loads); got != want {
			t.Errorf("%+v: CellKey %s, want the recorded %s", cases[i].j, got, want)
		}
	}
	for _, c := range cases {
		want := oracleCellKey(c.j, c.opts, c.loads)
		if got := CellKey(c.j, c.opts, c.loads); got != want {
			t.Errorf("%q under %+v: CellKey %s, oracle %s", c.j.Key(), c.opts, got, want)
		}
		c.opts.CellCache = mapCellCache{}
		if got := cellKeys([]Job{c.j, c.j}, c.opts, c.loads); got[0] != want || got[1] != want {
			t.Errorf("%q: cellKeys %v, oracle %s", c.j.Key(), got, want)
		}
	}
}

// FuzzCellKey checks the sweep's cell keys against the json.Marshal
// oracle over arbitrary job strings, numbers and options.
func FuzzCellKey(f *testing.F) {
	for _, c := range keyCases() {
		f.Add(c.j.Benchmark, c.j.Routing, c.j.Policy, c.j.SwitchCount, c.j.Faults, c.j.Seed,
			c.opts.VCLimit, c.opts.Simulate, c.opts.Certify, c.opts.Sim.Load, c.opts.Sim.Cycles)
	}
	f.Fuzz(func(t *testing.T, bench, routing, policy string, switches, faults int, seed int64,
		vcLimit int, simulate, cert bool, load float64, cycles int64) {
		j := Job{Benchmark: bench, SwitchCount: switches, Routing: routing, Faults: faults, Policy: policy, Seed: seed}
		opts := Options{VCLimit: vcLimit, Simulate: simulate, Certify: cert,
			Sim: SimParams{Load: load, Cycles: cycles}, maxPaths: faults}
		loads := []float64{load, 1}
		if got, want := CellKey(j, opts, loads), oracleCellKey(j, opts, loads); got != want {
			t.Fatalf("%+v: key %s, oracle %s", j, got, want)
		}
	})
}

// mapCellCache is a plain Get/Put CellCache, without GetDecoded.
type mapCellCache map[string][]byte

func (m mapCellCache) Get(key string) ([]byte, bool) { v, ok := m[key]; return v, ok }
func (m mapCellCache) Put(key string, val []byte)    { m[key] = val }

// foreignDecodeCache answers GetDecoded with a decoded value of a type
// the runner does not use.
type foreignDecodeCache struct{ mapCellCache }

func (c foreignDecodeCache) GetDecoded(key string, _ func([]byte) (any, error)) ([]byte, any, bool) {
	v, ok := c.mapCellCache[key]
	return v, 42, ok
}

// TestCacheHitIsolated pins that hits share no memory: mutating a hit's
// Sim, Sim.LoadSweep and Certify leaves the next hit unchanged, whether
// the cache keeps decoded values (fabric.Cache), only bytes, or hands
// back a decoded value of a foreign type.
func TestCacheHitIsolated(t *testing.T) {
	j := Job{Benchmark: "D26_media", SwitchCount: 8, Policy: "smallest"}
	stored := Result{Job: j, Cores: 26, RemovalVCs: 3,
		Sim:     &SimResult{PreRan: true, PostP95: 17, LoadSweep: []LoadPoint{{Load: 0.5, P50: 4}, {Load: 1, P50: 9}}},
		Certify: &CertResult{Salt: certify.Salt, Agree: true, PostSHA256: "ab"}}
	data, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	const key = "00ff"
	for name, cache := range map[string]CellCache{
		"decoding": fabric.NewCache(fabric.CacheOptions{}),
		"bytes":    mapCellCache{},
		"foreign":  foreignDecodeCache{mapCellCache{}},
	} {
		cache.Put(key, data)
		opts := Options{CellCache: cache, Certify: true}
		first, got, ok := cacheHit(opts, key, j)
		if !ok || string(got) != string(data) || !reflect.DeepEqual(first, stored) {
			t.Fatalf("%s: hit %v, %+v", name, ok, first)
		}
		first.Sim.PostP95 = -1
		first.Sim.LoadSweep[0].P50 = -1
		first.Sim.LoadSweep = append(first.Sim.LoadSweep, LoadPoint{})
		first.Certify.Agree = false
		first.Certify.Salt = "mutated"
		second, _, ok := cacheHit(opts, key, j)
		if !ok || !reflect.DeepEqual(second, stored) {
			t.Fatalf("%s: a mutated hit leaked into the next: %v, %+v %+v", name, ok, second.Sim, second.Certify)
		}
		if _, _, ok := cacheHit(opts, key, Job{Benchmark: "D26_media", SwitchCount: 11, Policy: "smallest"}); ok {
			t.Fatalf("%s: a hit for another cell was accepted", name)
		}
	}
}
