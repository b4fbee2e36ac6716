package serve

// Cache-propagation endpoints, pressure-derived backpressure hints, and
// the SSE keepalive: the serve-side half of fabric phase 2.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/fabric"
)

// TestCacheSeedAndFetch pins the propagation wire: a seed batch lands in
// the cache (invalid entries skipped, not fatal), and GET /v1/cache/{key}
// answers the raw stored bytes.
func TestCacheSeedAndFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Cache: fabric.NewCache(fabric.CacheOptions{})})

	seed := map[string]any{"entries": []map[string]any{
		{"key": "k1", "value": map[string]int{"v": 1}},
		{"key": "", "value": 7}, // no key: skipped
		{"key": "k2"},           // no value: skipped
	}}
	var out struct {
		Stored int `json:"stored"`
	}
	if code := postJSON(t, ts.URL+"/v1/cache/seed", seed, &out); code != http.StatusOK {
		t.Fatalf("seed: status %d", code)
	}
	if out.Stored != 1 {
		t.Fatalf("seed stored %d entries, want 1 (invalid ones skipped)", out.Stored)
	}

	resp, err := http.Get(ts.URL + "/v1/cache/k1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch seeded key: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("fetch content type %q", ct)
	}
	if string(body) != `{"v":1}` {
		t.Fatalf("fetched bytes %q, want the raw seeded value", body)
	}

	resp, err = http.Get(ts.URL + "/v1/cache/absent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch absent key: status %d, want 404", resp.StatusCode)
	}
}

// TestCacheKeysStayInCacheDir pins that a cache key taken from a request
// never names a file outside the disk tier's directory: the open GET
// /v1/cache/.%2F..%2Fsecret cannot read DIR/../secret.json, and a seed
// under ./../planted cannot create DIR/../planted.json. Such keys stay in
// memory.
func TestCacheKeysStayInCacheDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	if err := os.WriteFile(filepath.Join(root, "secret.json"), []byte(`"secret"`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Cache: fabric.NewCache(fabric.CacheOptions{Dir: dir})})

	resp, err := http.Get(ts.URL + "/v1/cache/.%2F..%2Fsecret")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch of a key escaping the cache dir: status %d, body %q; want 404", resp.StatusCode, body)
	}

	seed := map[string]any{"entries": []map[string]any{{"key": "./../planted", "value": map[string]int{"v": 1}}}}
	var out struct {
		Stored int `json:"stored"`
	}
	if code := postJSON(t, ts.URL+"/v1/cache/seed", seed, &out); code != http.StatusOK || out.Stored != 1 {
		t.Fatalf("seed: status %d, stored %d", code, out.Stored)
	}
	if _, err := os.Stat(filepath.Join(root, "planted.json")); !os.IsNotExist(err) {
		t.Fatalf("a seeded key wrote outside the cache dir (stat: %v)", err)
	}
	resp, err = http.Get(ts.URL + "/v1/cache/.%2F..%2Fplanted")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != `{"v":1}` {
		t.Fatalf("seeded key not served from memory: status %d, body %q", resp.StatusCode, body)
	}
}

// TestCacheSeedWithoutCache409 pins the no-cache answer: a peer shipping
// entries to an instance running cacheless gets a definitive 409, not an
// invitation to retry.
func TestCacheSeedWithoutCache409(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	seed := map[string]any{"entries": []map[string]any{{"key": "k", "value": 1}}}
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/cache/seed", seed, &out); code != http.StatusConflict {
		t.Fatalf("seed without a cache: status %d, want 409", code)
	}
	resp, err := http.Get(ts.URL + "/v1/cache/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetch without a cache: status %d, want 404", resp.StatusCode)
	}
}

// TestRetryAfterScalesWithPressure unit-tests the 429 hint derivation:
// seconds grow with the queued backlog per pool worker, floored at 1 and
// capped at 30.
func TestRetryAfterScalesWithPressure(t *testing.T) {
	s := &Server{opts: Options{Workers: 4}.withDefaults(), queue: make(chan *Job, 1024)}
	cases := []struct{ queued, want int }{
		{0, 1}, {1, 1}, {8, 1}, {9, 2}, {80, 10}, {640, 30},
	}
	for _, c := range cases {
		for len(s.queue) > 0 {
			<-s.queue
		}
		for i := 0; i < c.queued; i++ {
			s.queue <- nil
		}
		if got := s.retryAfterSeconds(); got != c.want {
			t.Fatalf("retryAfterSeconds with %d queued / %d workers = %d, want %d",
				c.queued, s.opts.Workers, got, c.want)
		}
	}
}

// TestFabricQueueFullDrainAdmits is the backpressure regression: fill
// the job table (429 with a usable Retry-After), drain it, and the
// retried submission must be admitted — a full table is load, not a
// permanent failure.
func TestFabricQueueFullDrainAdmits(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	t.Cleanup(s.Cancel)
	topo, traffic, routes := foreverDesign(t)
	body := map[string]any{
		"topology": topo, "traffic": traffic, "routes": routes,
		"config": map[string]any{"max_cycles": int64(1) << 40},
	}
	var occupant, filler, sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", body, &occupant); code != http.StatusAccepted {
		t.Fatalf("submit occupant: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+occupant.ID, &st)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("occupant never started: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := postJSON(t, ts.URL+"/v1/simulate", body, &filler); code != http.StatusAccepted {
		t.Fatalf("submit filler: status %d", code)
	}

	data, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 30 {
		t.Fatalf("429 Retry-After %q, want whole seconds in [1,30]", resp.Header.Get("Retry-After"))
	}

	// Drain: cancel the occupant so the filler takes the worker slot and
	// the queue empties; the retried submission must then be admitted.
	var canceled JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs/"+occupant.ID+"/cancel", nil, &canceled); code != http.StatusAccepted {
		t.Fatalf("cancel occupant: status %d", code)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if code := postJSON(t, ts.URL+"/v1/simulate", body, &sub); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drained job table never admitted the retried submission")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobEventsPing pins the SSE keepalive: a quiet running job's event
// stream carries ": ping" comment frames, and the stream still closes
// with the terminal state event.
func TestJobEventsPing(t *testing.T) {
	old := ssePingInterval
	ssePingInterval = 20 * time.Millisecond
	t.Cleanup(func() { ssePingInterval = old })

	s, ts := newTestServer(t, Options{Workers: 1})
	t.Cleanup(s.Cancel)
	topo, traffic, routes := foreverDesign(t)
	body := map[string]any{
		"topology": topo, "traffic": traffic, "routes": routes,
		"config": map[string]any{"max_cycles": int64(1) << 40},
	}
	var sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", body, &sub); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	watchdog := time.AfterFunc(10*time.Second, func() { resp.Body.Close() })
	defer watchdog.Stop()

	pings := 0
	sawState := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ":") {
			if pings++; pings == 2 {
				// Two keepalives observed; end the job so the stream closes.
				var st JobStatus
				if code := postJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"/cancel", nil, &st); code != http.StatusAccepted {
					t.Fatalf("cancel: status %d", code)
				}
			}
		}
		if strings.HasPrefix(line, "event: state") {
			sawState = true
		}
	}
	if pings < 2 {
		t.Fatalf("saw %d keepalive ping(s), want >= 2", pings)
	}
	if !sawState {
		t.Fatal("stream ended without the terminal state event")
	}
}
