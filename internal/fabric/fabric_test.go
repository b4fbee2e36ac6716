package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestKeyDeterministic pins that the content address is a pure function
// of the semantic inputs: equal values hash equal, different values (or
// kinds, or salts) hash differently.
func TestKeyDeterministic(t *testing.T) {
	type in struct {
		A string
		B []int
		M map[string]int
	}
	v := in{A: "x", B: []int{1, 2}, M: map[string]int{"b": 2, "a": 1}}
	if Key("k", v) != Key("k", v) {
		t.Fatal("equal inputs hashed differently")
	}
	if Key("k", v) == Key("other-kind", v) {
		t.Fatal("kind does not participate in the key")
	}
	w := v
	w.B = []int{1, 3}
	if Key("k", v) == Key("k", w) {
		t.Fatal("different inputs collided")
	}
	// Map iteration order must not leak into the address.
	for i := 0; i < 32; i++ {
		u := in{A: "x", B: []int{1, 2}, M: map[string]int{"a": 1, "b": 2}}
		if Key("k", u) != Key("k", v) {
			t.Fatal("map ordering leaked into the key")
		}
	}
}

// TestKeySalt pins the engine-version salt: the same inputs under a
// different salt produce a disjoint address, so no result cached before
// an engine change can be served after it.
func TestKeySalt(t *testing.T) {
	if keyWithSalt("engine/1", "k", 42) == keyWithSalt("engine/2", "k", 42) {
		t.Fatal("salt does not participate in the key")
	}
	if Key("k", 42) != keyWithSalt(EngineVersion, "k", 42) {
		t.Fatal("Key does not use the EngineVersion salt")
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache(CacheOptions{MaxEntries: 2})
	c.Put("a", []byte("va"))
	c.Put("b", []byte("vb"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c must evict b.
	c.Put("c", []byte("vc"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the bound")
	}
	if v, ok := c.Get("a"); !ok || string(v) != "va" {
		t.Fatalf("a lost or corrupted: %q %v", v, ok)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries %d, want 2", st.Entries)
	}
	if st.Bytes != int64(len("va")+len("vc")) {
		t.Fatalf("bytes %d", st.Bytes)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d, want 2/1", st.Hits, st.Misses)
	}
}

// TestCacheDisk pins the on-disk tier: entries survive a fresh Cache
// instance over the same directory (the cross-process story), and disk
// hits are promoted and counted.
func TestCacheDisk(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCache(CacheOptions{Dir: dir})
	c1.Put("deadbeef", []byte(`{"x":1}`))

	c2 := NewCache(CacheOptions{Dir: dir})
	v, ok := c2.Get("deadbeef")
	if !ok || string(v) != `{"x":1}` {
		t.Fatalf("disk tier miss: %q %v", v, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
	// Promoted: the second read must come from memory.
	if _, ok := c2.Get("deadbeef"); !ok {
		t.Fatal("promotion lost the entry")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("promotion not served from memory: %+v", st)
	}
	// No stray temp files.
	entries, _ := filepath.Glob(filepath.Join(dir, "*", ".tmp-*"))
	if len(entries) != 0 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestCacheDiskUnwritable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.Mkdir(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheOptions{Dir: dir})
	c.Put("k", []byte("v")) // must not panic
	if v, ok := c.Get("k"); !ok || string(v) != "v" {
		t.Fatal("memory tier must still serve when disk writes fail")
	}
}

// TestCacheDoCollapses pins singleflight: N concurrent Do calls for one
// key execute the computation exactly once, every caller gets the same
// bytes, and followers are counted as collapsed.
func TestCacheDoCollapses(t *testing.T) {
	c := NewCache(CacheOptions{})
	var execs atomic.Int32
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do("k", false, func() ([]byte, error) {
				execs.Add(1)
				<-release
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("computation executed %d times, want exactly 1", got)
	}
	for i, v := range vals {
		if string(v) != "result" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
	st := c.Stats()
	if st.Collapsed != n-1 {
		t.Fatalf("collapsed %d, want %d", st.Collapsed, n-1)
	}
	// The stored entry now serves hits.
	if _, cached, _ := c.Do("k", false, func() ([]byte, error) { t.Fatal("recomputed"); return nil, nil }); !cached {
		t.Fatal("post-flight lookup missed")
	}
}

// TestCacheDoError pins that failed computations are not stored and the
// error reaches every collapsed follower.
func TestCacheDoError(t *testing.T) {
	c := NewCache(CacheOptions{})
	boom := errors.New("boom")
	if _, _, err := c.Do("k", false, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed computation was cached")
	}
}

// TestCacheNoCacheBypass pins the bypass contract: noCache skips the
// lookup (the computation reruns) but still refreshes the entry.
func TestCacheNoCacheBypass(t *testing.T) {
	c := NewCache(CacheOptions{})
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte(fmt.Sprintf("v%d", calls)), nil }
	v, cached, _ := c.Do("k", false, compute)
	if cached || string(v) != "v1" {
		t.Fatalf("cold: %q cached=%v", v, cached)
	}
	v, cached, _ = c.Do("k", true, compute)
	if cached || string(v) != "v2" {
		t.Fatalf("bypass did not recompute: %q cached=%v", v, cached)
	}
	// The bypass refreshed the entry: a normal lookup now sees v2.
	v, cached, _ = c.Do("k", false, compute)
	if !cached || string(v) != "v2" {
		t.Fatalf("bypass did not refresh: %q cached=%v", v, cached)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.Put("k", []byte("v"))
	v, cached, err := c.Do("k", false, func() ([]byte, error) { return []byte("v"), nil })
	if err != nil || cached || string(v) != "v" {
		t.Fatalf("nil Do: %q %v %v", v, cached, err)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	val, dec, ok := c.GetDecoded("k", func([]byte) (any, error) {
		t.Fatal("nil cache decoded")
		return nil, nil
	})
	if ok || val != nil || dec != nil {
		t.Fatalf("nil GetDecoded: %q %v %v", val, dec, ok)
	}
}

// fakeClock is a hand-advanced clock for deterministic TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// TestRegistryLifecycle pins the membership state machine: register →
// heartbeats keep a worker alive past any number of intervals → silence
// beyond the missed-heartbeat budget retires it → its next heartbeat is
// rejected → re-registration readmits it under a fresh ID.
func TestRegistryLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryOptions{HeartbeatInterval: time.Second, MissedBudget: 3, Now: clk.now})
	w := r.Register("http://a:1")
	if r.Count() != 1 {
		t.Fatalf("count %d", r.Count())
	}
	// Beating every interval keeps it alive arbitrarily long.
	for i := 0; i < 10; i++ {
		clk.advance(time.Second)
		if !r.Heartbeat(w.ID) {
			t.Fatalf("live heartbeat rejected at %d", i)
		}
	}
	// TTL is interval×budget = 3s; 3s of silence is within budget...
	clk.advance(3 * time.Second)
	if r.Count() != 1 {
		t.Fatal("retired within the budget")
	}
	// ...but one more tick past it retires the worker.
	clk.advance(time.Second)
	if r.Count() != 0 {
		t.Fatal("silent worker not retired")
	}
	if r.Heartbeat(w.ID) {
		t.Fatal("retired worker's heartbeat accepted")
	}
	if r.Retired() != 1 {
		t.Fatalf("retired counter %d", r.Retired())
	}
	// Rejoining after retirement is a fresh membership.
	w2 := r.Register("http://a:1")
	if w2.ID == w.ID {
		t.Fatal("retired ID reused")
	}
	if got := r.Live(); len(got) != 1 || got[0].URL != "http://a:1" {
		t.Fatalf("live %v", got)
	}
}

// TestRegistryReregisterKeepsIdentity pins that a live worker
// re-registering (e.g. its join loop restarted) keeps its ID.
func TestRegistryReregisterKeepsIdentity(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryOptions{HeartbeatInterval: time.Second, Now: clk.now})
	a := r.Register("http://a:1")
	clk.advance(time.Second)
	b := r.Register("http://a:1")
	if a.ID != b.ID {
		t.Fatalf("live re-registration changed identity: %s -> %s", a.ID, b.ID)
	}
	if r.Count() != 1 {
		t.Fatalf("count %d", r.Count())
	}
}

// TestRegistryHeartbeatAtTTLBoundary pins the boundary semantics of the
// lazy prune: retirement requires silence *strictly greater* than
// interval×budget, so a heartbeat landing exactly at the TTL is still
// accepted — the worker used its whole budget and survived.
func TestRegistryHeartbeatAtTTLBoundary(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryOptions{HeartbeatInterval: time.Second, MissedBudget: 3, Now: clk.now})
	w := r.Register("http://a:1")

	clk.advance(r.TTL()) // exactly interval×budget of silence
	if !r.Heartbeat(w.ID) {
		t.Fatal("heartbeat landing exactly at the TTL boundary was rejected")
	}
	if r.Retired() != 0 {
		t.Fatalf("retired %d at the boundary", r.Retired())
	}
	// The smallest step past the boundary retires the worker.
	clk.advance(r.TTL() + time.Nanosecond)
	if r.Heartbeat(w.ID) {
		t.Fatal("heartbeat strictly past the TTL boundary was accepted")
	}
	if r.Retired() != 1 {
		t.Fatalf("retired %d past the boundary", r.Retired())
	}
}

// TestRegistryReregisterRacesPrune pins re-registration against the lazy
// prune, which runs inside Register itself: exactly at the TTL the
// worker is still live and keeps its identity; strictly past it the
// prune wins first and the same URL joins fresh under a new ID.
func TestRegistryReregisterRacesPrune(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryOptions{HeartbeatInterval: time.Second, MissedBudget: 3, Now: clk.now})
	a := r.Register("http://a:1")

	clk.advance(r.TTL())
	b := r.Register("http://a:1")
	if b.ID != a.ID {
		t.Fatalf("re-registration at the boundary lost identity: %s -> %s", a.ID, b.ID)
	}

	clk.advance(r.TTL() + time.Nanosecond)
	c := r.Register("http://a:1")
	if c.ID == a.ID {
		t.Fatal("re-registration past the TTL reused the retired ID")
	}
	if r.Retired() != 1 {
		t.Fatalf("retired %d", r.Retired())
	}
	if r.Count() != 1 {
		t.Fatalf("count %d", r.Count())
	}
}

// TestRegistryLiveJoinOrder pins Live to join order when join times
// tie: under a clock that never moves, w-10 and w-11 come after w-9, not
// after w-1 as an order by ID string puts them.
func TestRegistryLiveJoinOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := NewRegistry(RegistryOptions{Now: clk.now})
	var want []string
	for i := 1; i <= 11; i++ {
		want = append(want, r.Register(fmt.Sprintf("http://w:%d", i)).ID)
	}
	var got []string
	for _, w := range r.Live() {
		got = append(got, w.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Live order %v, want join order %v", got, want)
	}
}

// TestJoinReregistrationResetsInterval pins that a worker beats at the
// interval its latest registration dictates. The stub coordinator asks
// for 200 ms at the first registration, rejects w-1's heartbeat, and asks
// for 5 ms (with a 15 ms TTL) at the second. Twenty heartbeats for w-2
// then take about 100 ms; at the first registration's interval they
// would take four seconds, and a coordinator would retire w-2 between
// any two of them.
func TestJoinReregistrationResetsInterval(t *testing.T) {
	var (
		mu      sync.Mutex
		joins   int
		w2Beats int
	)
	enough := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/v1/workers/register":
			joins++
			interval := int64(200)
			if joins > 1 {
				interval = 5
			}
			fmt.Fprintf(w, `{"id": "w-%d", "heartbeat_interval_ms": %d, "ttl_ms": %d}`, joins, interval, 3*interval)
		case "/v1/workers/w-2/heartbeat":
			if w2Beats++; w2Beats == 20 {
				close(enough)
			}
			w.WriteHeader(http.StatusNoContent)
		default: // w-1's heartbeat: retired
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := Join(ctx, srv.URL, "http://worker:1", JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-enough:
	case <-time.After(3 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("after %d registrations w-2 sent %d heartbeats in 3 s, want 20", joins, w2Beats)
	}
}

func TestRegistryDefaults(t *testing.T) {
	r := NewRegistry(RegistryOptions{})
	if r.TTL() != DefaultHeartbeatInterval*DefaultMissedBudget {
		t.Fatalf("ttl %v", r.TTL())
	}
	if r.HeartbeatInterval() != DefaultHeartbeatInterval {
		t.Fatalf("interval %v", r.HeartbeatInterval())
	}
}

// TestKeyOf pins that KeyOf over json.Marshal(parts) is Key(kind, parts),
// the identity a caller that builds its own encoding relies on.
func TestKeyOf(t *testing.T) {
	for _, parts := range []any{42, "x<&>", struct {
		A string  `json:"a"`
		B float64 `json:"b"`
	}{" ", 3e22}} {
		data, err := json.Marshal(parts)
		if err != nil {
			t.Fatal(err)
		}
		if KeyOf("k", data) != Key("k", parts) {
			t.Errorf("KeyOf(%s) differs from Key", data)
		}
	}
}

// countingDecode decodes a value as its string and counts the calls.
func countingDecode(calls *atomic.Int32) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		calls.Add(1)
		return string(b), nil
	}
}

// TestCacheGetDecoded pins the decoded tier: decode runs once per
// resident value, a replacing Put or Seed drops the decoded value, a
// decode error keeps nothing, and the hit and miss counters move exactly
// as Get moves them.
func TestCacheGetDecoded(t *testing.T) {
	var calls atomic.Int32
	decode := countingDecode(&calls)
	c := NewCache(CacheOptions{})
	twin := NewCache(CacheOptions{})
	both := func(f func(*Cache)) { f(c); f(twin) }
	get := func(key, want string, decodes int32) {
		t.Helper()
		val, dec, ok := c.GetDecoded(key, decode)
		if _, tok := twin.Get(key); tok != ok {
			t.Fatalf("%s: GetDecoded ok=%v, Get ok=%v", key, ok, tok)
		}
		if want == "" {
			if ok || val != nil || dec != nil {
				t.Fatalf("%s: miss answered %q %v %v", key, val, dec, ok)
			}
		} else if !ok || string(val) != want || dec != want {
			t.Fatalf("%s: got %q %v %v, want %q", key, val, dec, ok, want)
		}
		if n := calls.Load(); n != decodes {
			t.Fatalf("%s: %d decodes, want %d", key, n, decodes)
		}
	}
	both(func(c *Cache) { c.Put("a", []byte("v1")) })
	get("a", "v1", 1)
	get("a", "v1", 1)
	get("absent", "", 1)
	both(func(c *Cache) { c.Put("a", []byte("v2")) })
	get("a", "v2", 2)
	get("a", "v2", 2)
	both(func(c *Cache) { c.Seed("a", []byte("v3")) })
	get("a", "v3", 3)
	get("a", "v3", 3)
	if got, want := c.Stats(), twin.Stats(); got != want {
		t.Fatalf("GetDecoded stats %+v, Get stats %+v", got, want)
	}
	if st := c.Stats(); st.Hits != 6 || st.Misses != 1 || st.Bytes != 2 {
		t.Fatalf("stats %+v, want 6 hits, 1 miss, 2 bytes", st)
	}

	// A decode error answers the bytes undecoded and keeps nothing.
	c.Put("b", []byte("junk"))
	fails := 0
	bad := func([]byte) (any, error) { fails++; return nil, errors.New("corrupt") }
	for i := 0; i < 2; i++ {
		if val, dec, ok := c.GetDecoded("b", bad); !ok || string(val) != "junk" || dec != nil {
			t.Fatalf("failed decode answered %q %v %v", val, dec, ok)
		}
	}
	if fails != 2 {
		t.Fatalf("failed decode ran %d times, want 2 (nothing kept)", fails)
	}
}

// TestCacheGetDecodedStoreWins pins that a store racing a decode wins:
// the decoded value of bytes that were replaced while decode ran is not
// kept, so the next lookup decodes the new bytes.
func TestCacheGetDecodedStoreWins(t *testing.T) {
	c := NewCache(CacheOptions{})
	c.Put("k", []byte("old"))
	raced := false
	val, dec, ok := c.GetDecoded("k", func(b []byte) (any, error) {
		if !raced {
			raced = true
			c.Put("k", []byte("new"))
		}
		return string(b), nil
	})
	if !ok || string(val) != "old" || dec != "old" {
		t.Fatalf("racing lookup answered %q %v %v", val, dec, ok)
	}
	var calls atomic.Int32
	if val, dec, ok := c.GetDecoded("k", countingDecode(&calls)); !ok || string(val) != "new" || dec != "new" || calls.Load() != 1 {
		t.Fatalf("after the racing store: %q %v %v, %d decodes; want new, decoded once", val, dec, ok, calls.Load())
	}
}

// TestCacheGetDecodedEvictionAndDisk pins that eviction drops the decoded
// value with its entry, and that a disk-tier hit decodes once and is then
// answered from memory.
func TestCacheGetDecodedEvictionAndDisk(t *testing.T) {
	var calls atomic.Int32
	decode := countingDecode(&calls)
	dir := t.TempDir()
	c := NewCache(CacheOptions{MaxEntries: 1, Dir: dir})
	c.Put("aa", []byte("va"))
	c.GetDecoded("aa", decode)
	c.Put("bb", []byte("vb")) // evicts aa from memory; its file remains
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries %d, want 1", st.Entries)
	}
	for i := 0; i < 3; i++ {
		if _, dec, ok := c.GetDecoded("aa", decode); !ok || dec != "va" {
			t.Fatalf("lookup %d after eviction: %v %v", i, dec, ok)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("%d decodes, want 2: the evicted value decodes again once", calls.Load())
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("stats %+v, want 1 disk hit of 4 hits", st)
	}
}

// TestCacheGetDecodedConcurrent runs lookups, Puts and Seeds of a few
// keys at once (meaningful under -race): every answer's decoded value is
// the decoding of the bytes it came with.
func TestCacheGetDecodedConcurrent(t *testing.T) {
	c := NewCache(CacheOptions{MaxEntries: 3})
	decode := func(b []byte) (any, error) { return string(b), nil }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g+i)%5)
				switch i % 3 {
				case 0:
					c.Put(key, []byte(fmt.Sprintf("%s-%d-%d", key, g, i)))
				case 1:
					c.Seed(key, []byte(fmt.Sprintf("%s-%d-%d", key, g, i)))
				default:
					if val, dec, ok := c.GetDecoded(key, decode); ok && dec != string(val) {
						t.Errorf("%s: decoded %v for bytes %q", key, dec, val)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheDiskKeysStayInDir pins that a key which is not a hex digest
// never names a file: a store under "../x" or "./../x" writes nothing
// inside or outside Dir, and a lookup under such a key cannot read a file
// planted beside Dir.
func TestCacheDiskKeysStayInDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	if err := os.WriteFile(filepath.Join(root, "x.json"), []byte(`"planted"`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(CacheOptions{Dir: dir})
	for _, key := range []string{"../x", "./../x", "../../x", "ab/../../x", "..", "/x", "DEADBEEF", "k"} {
		if _, ok := NewCache(CacheOptions{Dir: dir}).Get(key); ok {
			t.Errorf("%q: a lookup read a file", key)
		}
		c.Put(key, []byte(`"stored"`))
		if v, ok := c.Get(key); !ok || string(v) != `"stored"` {
			t.Errorf("%q: memory tier lost the value: %q %v", key, v, ok)
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if len(files) != 1 || files[0] != filepath.Join(root, "x.json") {
		t.Fatalf("files under the test root: %v, want only the planted one", files)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("non-hex keys created the cache directory (%v)", err)
	}
}
