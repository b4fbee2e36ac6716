package fabric

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultHeartbeatInterval is how often a joined worker announces
// liveness, and DefaultMissedBudget how many consecutive intervals may
// pass silently before the registry retires it. Together they form the
// worker TTL: interval × budget.
const (
	DefaultHeartbeatInterval = 2 * time.Second
	DefaultMissedBudget      = 3
)

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// HeartbeatInterval is the interval workers are told to beat at.
	// Default DefaultHeartbeatInterval.
	HeartbeatInterval time.Duration
	// MissedBudget is how many consecutive missed heartbeats retire a
	// worker. Default DefaultMissedBudget.
	MissedBudget int
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.MissedBudget < 1 {
		o.MissedBudget = DefaultMissedBudget
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Worker is one registered fleet member. LastSeen advances on every
// heartbeat (and on re-registration); a worker whose LastSeen falls
// behind the TTL is retired lazily on the next read.
type Worker struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	Joined   time.Time `json:"joined"`
	LastSeen time.Time `json:"last_seen"`

	seq int // join sequence number, the number in ID
}

// Registry is the coordinator-side membership table: a monotonic ID per
// join, a URL-keyed live set, and lazy TTL expiry — there is no janitor
// goroutine, workers are pruned whenever the live set is read, which
// keeps retirement deterministic under an injected clock.
type Registry struct {
	opts RegistryOptions

	mu      sync.Mutex
	seq     int
	byID    map[string]*Worker
	byURL   map[string]*Worker
	retired uint64
}

// NewRegistry builds a Registry.
func NewRegistry(opts RegistryOptions) *Registry {
	return &Registry{
		opts:  opts.withDefaults(),
		byID:  make(map[string]*Worker),
		byURL: make(map[string]*Worker),
	}
}

// TTL is the silence budget after which a worker is retired.
func (r *Registry) TTL() time.Duration {
	return r.opts.HeartbeatInterval * time.Duration(r.opts.MissedBudget)
}

// HeartbeatInterval is the interval workers are told to beat at.
func (r *Registry) HeartbeatInterval() time.Duration {
	return r.opts.HeartbeatInterval
}

// Register adds (or refreshes) a worker by URL and returns its record.
// Re-registering a URL keeps its ID and join time — a worker restarting
// its heartbeat loop is the same fleet member, not a new one — unless it
// had already been retired, in which case it joins fresh under a new ID.
func (r *Registry) Register(url string) Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.opts.Now()
	r.pruneLocked(now)
	if w, ok := r.byURL[url]; ok {
		w.LastSeen = now
		return *w
	}
	r.seq++
	w := &Worker{
		ID:       fmt.Sprintf("w-%d", r.seq),
		URL:      url,
		Joined:   now,
		LastSeen: now,
		seq:      r.seq,
	}
	r.byID[w.ID] = w
	r.byURL[url] = w
	return *w
}

// Heartbeat refreshes a worker's liveness; false means the ID is unknown
// (never registered, or retired after missing its budget) and the worker
// must re-register.
func (r *Registry) Heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.opts.Now()
	r.pruneLocked(now)
	w, ok := r.byID[id]
	if !ok {
		return false
	}
	w.LastSeen = now
	return true
}

// Live returns the current live workers sorted by ID sequence (join
// order), pruning any whose heartbeat budget has lapsed.
func (r *Registry) Live() []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.opts.Now())
	out := make([]Worker, 0, len(r.byID))
	for _, w := range r.byID {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Count returns the live worker count.
func (r *Registry) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.opts.Now())
	return len(r.byID)
}

// Retired counts workers retired for silence since the registry started.
func (r *Registry) Retired() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pruneLocked(r.opts.Now())
	return r.retired
}

// pruneLocked retires every worker silent past the TTL; the caller holds
// r.mu.
func (r *Registry) pruneLocked(now time.Time) {
	ttl := r.TTL()
	for id, w := range r.byID {
		if now.Sub(w.LastSeen) > ttl {
			delete(r.byID, id)
			delete(r.byURL, w.URL)
			r.retired++
		}
	}
}
