package fabric

import (
	"container/list"
	"context"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// CacheOptions configures a Cache.
type CacheOptions struct {
	// MaxEntries bounds the in-memory LRU tier. Default 1024.
	MaxEntries int
	// Dir, when non-empty, enables the on-disk tier: every stored value
	// is also written to a file named by its key under Dir, and memory
	// misses fall through to it. The directory is created on demand.
	// Only keys made of lowercase hex digits, the digests Key produces,
	// name files; a value under any other key stays in memory, so no
	// key (a request path can carry anything) reaches outside Dir.
	// Disk entries are never evicted by the cache itself — the engine
	// salt in every key already retires stale files, and operators can
	// clear the directory wholesale.
	Dir string
	// Upstream, when non-nil, links this cache to a peer's: lookups that
	// miss both local tiers fall through to the peer (counted in
	// UpstreamHits and stored locally), and Put feeds a background push
	// loop that ships fresh entries back via /v1/cache/seed. Seed stores
	// bypass the push loop so seeded entries never echo back to their
	// origin. Call Close to flush and stop the push loop.
	Upstream *Upstream
}

func (o CacheOptions) withDefaults() CacheOptions {
	if o.MaxEntries < 1 {
		o.MaxEntries = 1024
	}
	return o
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	// Hits counts lookups answered from either tier (disk hits are
	// counted in both Hits and DiskHits).
	Hits uint64 `json:"hits"`
	// Misses counts lookups answered by neither tier.
	Misses uint64 `json:"misses"`
	// Collapsed counts Do callers that piggybacked on another caller's
	// in-flight computation instead of executing their own.
	Collapsed uint64 `json:"collapsed"`
	// DiskHits counts lookups that missed memory but hit the disk tier.
	DiskHits uint64 `json:"disk_hits"`
	// UpstreamHits counts lookups that missed both local tiers but were
	// answered by the upstream peer (also counted in Hits).
	UpstreamHits uint64 `json:"upstream_hits"`
	// Puts counts stores (Put and Seed alike).
	Puts uint64 `json:"puts"`
	// Pushed counts entries shipped to the upstream peer by the push loop.
	Pushed uint64 `json:"pushed"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
	// Bytes is the resident size of the in-memory tier's values. It
	// counts value bytes only: an entry a GetDecoded caller has decoded
	// also holds the decoded value, so a small cell's entry occupies
	// about twice its Bytes share.
	Bytes int64 `json:"bytes"`
	// MaxEntries echoes the configured memory bound.
	MaxEntries int `json:"max_entries"`
}

// HitRate is hits over total lookups, 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// flight is one in-progress Do computation; followers wait on done.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is the content-addressed result store: a bounded in-memory LRU
// in front of an optional on-disk tier, with singleflight collapsing of
// concurrent identical computations. All methods are safe for concurrent
// use, and every method is a no-op-safe on a nil receiver, so call sites
// need not branch on whether caching is configured.
type Cache struct {
	mu      sync.Mutex
	opts    CacheOptions
	ll      *list.List // front = most recent
	items   map[string]*list.Element
	flights map[string]*flight
	bytes   int64
	hits    uint64
	misses  uint64
	clps    uint64
	dskHits uint64
	upHits  uint64
	puts    uint64
	pushed  uint64

	// Upstream push loop: Put enqueues, pusher ships batches, Close
	// drains. closed guards the channel against send-after-close.
	pushCh chan CacheEntry
	pushWG sync.WaitGroup
	closed bool
}

// entry is one resident value and, once a GetDecoded caller has decoded
// it, the decoded form of exactly these bytes.
type entry struct {
	key string
	val []byte
	dec any
}

// NewCache builds a Cache.
func NewCache(opts CacheOptions) *Cache {
	c := &Cache{
		opts:    opts.withDefaults(),
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
	if c.opts.Upstream != nil && c.opts.Upstream.URL != "" {
		c.pushCh = make(chan CacheEntry, 256)
		c.pushWG.Add(1)
		go c.pusher()
	}
	return c
}

// pusher ships queued entries upstream in batches. Failures drop the
// batch: the upstream can always pull what it missed.
func (c *Cache) pusher() {
	defer c.pushWG.Done()
	up := c.opts.Upstream
	for e := range c.pushCh {
		batch := []CacheEntry{e}
	fill:
		for len(batch) < SeedBatch {
			select {
			case next, ok := <-c.pushCh:
				if !ok {
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := SeedEntries(ctx, up.URL, up.Token, up.Client, batch)
		cancel()
		if err == nil {
			c.mu.Lock()
			c.pushed += uint64(len(batch))
			c.mu.Unlock()
		}
	}
}

// Get returns the value stored under key, consulting memory first and
// the disk tier second (promoting disk hits into memory). The returned
// slice is shared — callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	return c.get(key, true)
}

// get is Get with the miss accounting optional: Do suppresses it so a
// caller that goes on to join an in-flight computation is counted as
// Collapsed, not as a Miss — exactly one miss per actual computation.
func (c *Cache) get(key string, countMiss bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		val := el.Value.(*entry).val
		c.mu.Unlock()
		return val, true
	}
	c.mu.Unlock()
	path, onDisk := c.diskPath(key)
	if onDisk {
		if val, err := os.ReadFile(path); err == nil {
			c.mu.Lock()
			c.hits++
			c.dskHits++
			c.storeLocked(key, val)
			c.mu.Unlock()
			return val, true
		}
	}
	if up := c.opts.Upstream; up != nil && up.URL != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		val, err := up.fetch(ctx, key)
		cancel()
		if err == nil && len(val) > 0 {
			c.mu.Lock()
			c.hits++
			c.upHits++
			c.storeLocked(key, val)
			c.mu.Unlock()
			if onDisk {
				c.writeDisk(path, val)
			}
			return val, true
		}
	}
	if countMiss {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
	}
	return nil, false
}

// GetDecoded is Get for a caller that decodes the value: it returns the
// bytes Get would and decode's result for them, running decode at most
// once per resident value. The decoded value is kept beside the bytes in
// the memory tier and dropped with them, when a Put or Seed replaces
// them or the entry is evicted. It is shared by every caller, which must
// not mutate it. decode runs outside the cache's lock; its result is
// kept only if the entry still holds the bytes it decoded, so a store
// racing the decode wins. A decode error returns the bytes with a nil
// decoded value and keeps nothing. Hits and misses are counted exactly
// as Get counts them.
func (c *Cache) GetDecoded(key string, decode func([]byte) (any, error)) ([]byte, any, bool) {
	if c == nil {
		return nil, nil, false
	}
	var (
		val []byte
		dec any
	)
	c.mu.Lock()
	el, resident := c.items[key]
	if resident {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*entry)
		val, dec = e.val, e.dec
	}
	c.mu.Unlock()
	if !resident {
		var ok bool
		if val, ok = c.get(key, true); !ok {
			return nil, nil, false
		}
	}
	if dec != nil {
		return val, dec, true
	}
	dec, err := decode(val)
	if err != nil {
		return val, nil, true
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*entry); sameBytes(e.val, val) {
			e.dec = dec
		}
	}
	c.mu.Unlock()
	return val, dec, true
}

// sameBytes reports whether a and b are the same stored value: the same
// backing array and length, not merely equal contents.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Put stores val under key in both tiers and, when an upstream peer is
// linked, enqueues it for the background push loop (dropped without
// blocking when the queue is full — the peer can always pull). The value
// is retained as given — callers must not mutate it afterwards.
func (c *Cache) Put(key string, val []byte) {
	c.store(key, val, true)
}

// Seed stores val like Put but never enqueues an upstream push: it is
// the receiving side of propagation, and echoing a seeded entry back to
// the peer that shipped it would be pure churn.
func (c *Cache) Seed(key string, val []byte) {
	c.store(key, val, false)
}

func (c *Cache) store(key string, val []byte, push bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.puts++
	c.storeLocked(key, val)
	if push && c.pushCh != nil && !c.closed {
		select {
		case c.pushCh <- CacheEntry{Key: key, Value: val}:
		default:
		}
	}
	c.mu.Unlock()
	if path, ok := c.diskPath(key); ok {
		c.writeDisk(path, val)
	}
}

// Close flushes and stops the upstream push loop. Idempotent, and safe
// on a nil receiver or a cache with no upstream.
func (c *Cache) Close() {
	if c == nil || c.pushCh == nil {
		return
	}
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if !already {
		close(c.pushCh)
	}
	c.pushWG.Wait()
}

// storeLocked inserts or refreshes the memory entry and evicts past the
// bound; the caller holds c.mu.
func (c *Cache) storeLocked(key string, val []byte) {
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val, e.dec = val, nil
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	c.bytes += int64(len(val))
	for c.ll.Len() > c.opts.MaxEntries {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
	}
}

// Do returns the value for key, computing it at most once across all
// concurrent callers: a cache hit returns immediately; otherwise the
// first caller runs compute while followers with the same key block and
// share its outcome. cached reports whether this caller avoided the
// computation (a tier hit or a collapsed flight). Failed computations
// are not stored, and every waiting follower receives the error.
//
// When noCache is set the lookup is skipped — compute always runs for
// the leading caller — but the result is still stored, so a bypassing
// request refreshes the entry rather than leaving it stale.
func (c *Cache) Do(key string, noCache bool, compute func() ([]byte, error)) (val []byte, cached bool, err error) {
	if c == nil {
		val, err = compute()
		return val, false, err
	}
	if !noCache {
		if val, ok := c.get(key, false); ok {
			return val, true, nil
		}
	}
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.clps++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	if !noCache {
		// The one real miss per computation is charged to the leader;
		// followers joining the flight are Collapsed instead.
		c.misses++
	}
	c.mu.Unlock()

	f.val, f.err = compute()
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
	if f.err == nil {
		c.Put(key, f.val)
	}
	return f.val, false, f.err
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:         c.hits,
		Misses:       c.misses,
		Collapsed:    c.clps,
		DiskHits:     c.dskHits,
		UpstreamHits: c.upHits,
		Puts:         c.puts,
		Pushed:       c.pushed,
		Entries:      c.ll.Len(),
		Bytes:        c.bytes,
		MaxEntries:   c.opts.MaxEntries,
	}
}

// diskPath is the file of key's disk entry, and false when the value
// stays in memory: when there is no disk tier, or when key is not made
// of lowercase hex digits (so it can name no directory but its own).
// Entries are sharded across 256 prefix directories so a large cache
// never produces one enormous flat directory.
func (c *Cache) diskPath(key string) (string, bool) {
	if c.opts.Dir == "" || key == "" {
		return "", false
	}
	for i := 0; i < len(key); i++ {
		if b := key[i]; (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return "", false
		}
	}
	prefix := "xx"
	if len(key) >= 2 {
		prefix = key[:2]
	}
	return filepath.Join(c.opts.Dir, prefix, key+".json"), true
}

// writeDisk persists one entry at path atomically: write-to-temp then
// rename, so a concurrent reader never observes a torn file. Failures
// are silent — the disk tier is an optimization, never a correctness
// dependency.
func (c *Cache) writeDisk(path string, val []byte) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
	}
}
