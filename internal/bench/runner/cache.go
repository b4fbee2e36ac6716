// Content-addressed result caching for the sweep engine. A cell's cache
// key is the fabric hash of every semantic input of its evaluation — the
// job identity plus the option fields that change its result — so equal
// keys imply byte-identical results and any engine change (via the
// fabric salt) disjoints the whole key space at once.

package runner

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"

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
	return newCellKeyer(opts, loads).key(j)
}

// cellParts is the cellKeyParts of every cell of a sweep under opts and
// loads, with a zero Job.
func cellParts(opts Options, loads []float64) cellKeyParts {
	p := cellKeyParts{
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
	return p
}

// cellKeyer addresses the cells of one sweep. Every cellKeyParts field
// but Job is fixed for a sweep, so it marshals them once; a cell's
// encoding is that one with the cell's Job appended by hand, byte for
// byte what json.Marshal of the cell's cellKeyParts gives, so the keys
// equal fabric.Key("sweep-cell", parts).
type cellKeyer struct {
	parts cellKeyParts // the sweep's fields, with a zero Job
	buf   []byte       // the encoding under construction
	tail  []byte       // the encoding after the job object; nil if none
}

// jobHead opens every cell's encoding: Job is cellKeyParts' first field.
const jobHead = `{"job":`

func newCellKeyer(opts Options, loads []float64) *cellKeyer {
	k := &cellKeyer{parts: cellParts(opts, loads)}
	data, err := json.Marshal(k.parts)
	if err != nil {
		// A NaN or infinite simulation load does not marshal; key then
		// leaves the encoding, and the error, to fabric.Key.
		return k
	}
	head := len(appendJobJSON([]byte(jobHead), Job{}))
	k.buf = make([]byte, 0, len(data)+64)
	k.tail = data[head:]
	return k
}

// key is the content address of cell j.
func (k *cellKeyer) key(j Job) string {
	if k.tail == nil {
		p := k.parts
		p.Job = j
		return fabric.Key("sweep-cell", p)
	}
	k.buf = appendJobJSON(append(k.buf[:0], jobHead...), j)
	k.buf = append(k.buf, k.tail...)
	return fabric.KeyOf("sweep-cell", k.buf)
}

// appendJobJSON appends the encoding json.Marshal gives j: its fields in
// declaration order, routing and faults omitted when empty as their tags
// say.
func appendJobJSON(b []byte, j Job) []byte {
	b = append(b, `{"benchmark":`...)
	b = appendJSONString(b, j.Benchmark)
	b = append(b, `,"switch_count":`...)
	b = strconv.AppendInt(b, int64(j.SwitchCount), 10)
	if j.Routing != "" {
		b = append(b, `,"routing":`...)
		b = appendJSONString(b, j.Routing)
	}
	if j.Faults != 0 {
		b = append(b, `,"faults":`...)
		b = strconv.AppendInt(b, int64(j.Faults), 10)
	}
	b = append(b, `,"policy":`...)
	b = appendJSONString(b, j.Policy)
	b = append(b, `,"seed":`...)
	b = strconv.AppendInt(b, j.Seed, 10)
	return append(b, '}')
}

// appendJSONString appends s as encoding/json quotes it. A string of
// bytes encoding/json copies verbatim (jsonPlain) is copied between
// quotes; any other goes through json.Marshal, so its escaping is
// encoding/json's own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonPlain marks the bytes encoding/json copies into a string
// unescaped: printable ASCII but the quote, the backslash and the
// HTML-escaped <, > and &.
var jsonPlain = func() (plain [256]bool) {
	for c := ' '; c <= '~'; c++ {
		plain[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return plain
}()

// cellKeys addresses every job of a sweep once, so a cell's lookup and
// its store share one hash; nil when the sweep has no cache.
func cellKeys(jobs []Job, opts Options, loads []float64) []string {
	if opts.CellCache == nil {
		return nil
	}
	k := newCellKeyer(opts, loads)
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = k.key(j)
	}
	return keys
}

// decodingCache is the optional side of a CellCache that keeps each
// entry's decoded value beside its bytes (fabric.Cache does), so a
// resident cell is decoded once, not on every hit. A cache without it is
// asked for bytes and every hit decodes them.
type decodingCache interface {
	GetDecoded(key string, decode func([]byte) (any, error)) ([]byte, any, bool)
}

// decodeResult decodes a cached cell into a *Result.
func decodeResult(data []byte) (any, error) {
	r := new(Result)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// cacheHit looks job j up under key and returns the stored result and
// its bytes when they are usable verbatim: they decode, they are j's own
// result, and a certified run finds a certificate issued by the running
// checker. A stored certificate from a different checker build (possible
// when the cache persisted across a checker change without an
// engine-salt bump) voids the hit, so the cell re-certifies. A result
// the cache decoded once is shared, so the caller gets a copy that
// shares no memory with it.
func cacheHit(opts Options, key string, j Job) (Result, []byte, bool) {
	var (
		data    []byte
		ok      bool
		r       Result
		decoded bool // r holds the entry's decoded result
	)
	if dc, decodes := opts.CellCache.(decodingCache); decodes {
		var dec any
		if data, dec, ok = dc.GetDecoded(key, decodeResult); ok {
			if shared, usable := dec.(*Result); usable {
				r, decoded = shared.clone(), true
			}
		}
	} else {
		data, ok = opts.CellCache.Get(key)
	}
	if !ok {
		return Result{}, nil, false
	}
	if !decoded {
		dec, err := decodeResult(data)
		if err != nil {
			return Result{}, nil, false
		}
		r = *dec.(*Result)
	}
	if r.Job != j {
		return Result{}, nil, false
	}
	if opts.Certify && (r.Certify == nil || r.Certify.Salt != certify.Salt) {
		return Result{}, nil, false
	}
	return r, data, true
}

// clone copies r and everything it points to.
func (r *Result) clone() Result {
	c := *r
	if r.Sim != nil {
		sim := *r.Sim
		sim.LoadSweep = slices.Clone(sim.LoadSweep)
		c.Sim = &sim
	}
	if r.Certify != nil {
		cert := *r.Certify
		c.Certify = &cert
	}
	return c
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
