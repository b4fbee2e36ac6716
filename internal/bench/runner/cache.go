// Content-addressed result caching for the sweep engine. A cell's cache
// key is the fabric hash of every semantic input of its evaluation — the
// job identity plus the option fields that change its result — so equal
// keys imply byte-identical results and any engine change (via the
// fabric salt) disjoints the whole key space at once.

package runner

import (
	"encoding/json"

	"github.com/nocdr/nocdr/internal/certify"
	"github.com/nocdr/nocdr/internal/fabric"
)

// CellCache is the result-cache contract the sweep engine consults: Get
// returns the cached canonical JSON encoding of a cell's Result, Put
// stores one. Implementations must be safe for concurrent use;
// fabric.Cache satisfies the interface.
type CellCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// cellKeyParts is the canonical input set of one cell evaluation. Every
// field that can change the cell's Result participates; scheduling knobs
// (Parallel, Progress, shard assignment) deliberately do not — the same
// cell computed anywhere must hit the same address.
type cellKeyParts struct {
	Job      Job       `json:"job"`
	Policy   int       `json:"policy"`
	VCLimit  int       `json:"vc_limit"`
	Simulate bool      `json:"simulate"`
	Sim      SimParams `json:"sim"`
	MaxPaths int       `json:"max_paths"`
	Loads    []float64 `json:"loads,omitempty"`
	// Certify participates with omitempty so uncertified runs keep their
	// pre-existing addresses; certified and uncertified evaluations of
	// the same cell are distinct results and never alias.
	Certify bool `json:"certify,omitempty"`
}

// CellKey is the content address of one grid cell's evaluation under the
// given options and measurement loads. Simulation parameters are
// normalized to their effective values (so explicit defaults and zero
// values address the same entry) and dropped entirely when the run does
// not simulate, where they cannot influence the result.
func CellKey(j Job, opts Options, loads []float64) string {
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

// cellKeys addresses every job of a sweep once, so a cell's lookup and
// its store share one hash; nil when the sweep has no cache.
func cellKeys(jobs []Job, opts Options, loads []float64) []string {
	if opts.CellCache == nil {
		return nil
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = CellKey(j, opts, loads)
	}
	return keys
}

// cacheHit looks job j up under key and returns the stored result and
// its bytes when they are usable verbatim: they decode, they are j's own
// result, and a certified run finds a certificate issued by the running
// checker. A stored certificate from a different checker build (possible
// when the cache persisted across a checker change without an
// engine-salt bump) voids the hit, so the cell re-certifies.
func cacheHit(opts Options, key string, j Job) (Result, []byte, bool) {
	data, ok := opts.CellCache.Get(key)
	if !ok {
		return Result{}, nil, false
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil || r.Job != j {
		return Result{}, nil, false
	}
	if opts.Certify && (r.Certify == nil || r.Certify.Salt != certify.Salt) {
		return Result{}, nil, false
	}
	return r, data, true
}

// storeClean stores a computed result under key. Errored and canceled
// cells are never stored: they must re-run next time.
func storeClean(c CellCache, key string, r Result) {
	if r.Error != "" || r.Canceled {
		return
	}
	if data, err := json.Marshal(r); err == nil {
		c.Put(key, data)
	}
}
