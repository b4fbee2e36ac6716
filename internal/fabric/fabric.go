// Package fabric is the job-fabric layer of the deployment story: the
// pieces that turn a set of `nocdr serve` processes into a fleet.
//
// It has three cooperating parts, deliberately independent of the
// removal/simulation engine so every layer above (serve, the sweep
// coordinator, the CLIs) can compose them:
//
//   - A content-addressed result cache (Cache): the canonical hash of a
//     job's semantic inputs — topology, routes, traffic, options, and an
//     engine-version salt — keys a two-tier store (bounded in-memory LRU
//     plus an optional on-disk tier) with singleflight collapsing of
//     concurrent identical computations. A popular design costs one
//     computation no matter how many times it is requested.
//
//   - A worker registry (Registry): workers register with a coordinator
//     and heartbeat on an interval; a worker that misses its heartbeat
//     budget is retired from the live set. Join/Watch are the two client
//     halves: Join is the worker-side register-and-heartbeat loop, and
//     Watcher polls a coordinator's live set so a sweep dispatcher can
//     absorb workers joining and leaving mid-run.
//
//   - Fleet auth (RequireBearer): shared bearer-token authentication for
//     every mutating endpoint, compared in constant time.
//
// Everything here is deliberately deterministic and clock-injectable so
// the conformance suite can pin retirement and cache behavior without
// real time.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EngineVersion is the cache-key salt tied to the semantics of the
// removal and simulation engines. Bump it whenever a change alters any
// result bytes for identical inputs (new break heuristics, simulator
// arbitration changes, report-shape changes) — stale cached results can
// then never survive an engine change, because every key derived after
// the bump is disjoint from every key derived before it.
const EngineVersion = "nocdr-engine/9"

// Key returns the content address of a job's semantic inputs: the
// SHA-256 of the deterministic JSON encoding of parts, salted with
// EngineVersion and a caller-chosen kind (so a remove job and a sweep
// cell with coincidentally equal encodings can never collide).
//
// Determinism: encoding/json marshals struct fields in declaration
// order and map keys sorted, so two semantically equal inputs — however
// their original wire documents were ordered or spaced — hash
// identically. Callers must pass normalized values (e.g. canonical
// policy spellings), not raw request bytes.
func Key(kind string, parts any) string {
	return keyWithSalt(EngineVersion, kind, parts)
}

// keyWithSalt is Key with an explicit salt, split out so tests can pin
// that the salt participates in the address.
func keyWithSalt(salt, kind string, parts any) string {
	data, err := json.Marshal(parts)
	if err != nil {
		// Inputs are always marshalable value types; an error here is a
		// programming bug. Fold it into the hash rather than panic so a
		// cache lookup degrades to a guaranteed miss.
		data = []byte(fmt.Sprintf("unmarshalable:%v", err))
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{0})
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}
