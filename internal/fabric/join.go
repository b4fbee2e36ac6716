package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// registerRequest is the worker→coordinator join body.
type registerRequest struct {
	URL string `json:"url"`
}

// registerResponse is the coordinator's join answer: the assigned worker
// ID plus the heartbeat contract the worker must honor.
type registerResponse struct {
	ID                  string `json:"id"`
	HeartbeatIntervalMS int64  `json:"heartbeat_interval_ms"`
	TTLMS               int64  `json:"ttl_ms"`
}

// interval is the heartbeat period the registration dictates, or the
// default when it names none.
func (r *registerResponse) interval() time.Duration {
	if d := time.Duration(r.HeartbeatIntervalMS) * time.Millisecond; d > 0 {
		return d
	}
	return DefaultHeartbeatInterval
}

// workersResponse is the coordinator's GET /v1/workers document.
type workersResponse struct {
	Workers []Worker `json:"workers"`
	Count   int      `json:"count"`
}

// JoinOptions configures a worker's membership loop.
type JoinOptions struct {
	// Token is the fleet bearer token presented on register/heartbeat.
	Token string
	// Client is the HTTP client (nil = 10s-timeout default: membership
	// calls are tiny and must fail fast, unlike job traffic).
	Client *http.Client
	// OnState, when non-nil, observes membership transitions for logs:
	// "registered <id>", "re-registered <id>", "heartbeat lost: <err>".
	OnState func(msg string)
}

func (o JoinOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// Join runs a worker's membership loop against a coordinator until ctx
// is done: register self (advertised at selfURL), then heartbeat at the
// interval the coordinator dictated. A rejected heartbeat (the
// coordinator retired us, or restarted and lost the table) triggers
// re-registration; transport errors are retried at the same cadence, so
// a briefly unreachable coordinator never kills a healthy worker. The
// first registration is attempted immediately and its failure returned,
// so a mistyped coordinator URL surfaces at startup instead of silently
// looping.
func Join(ctx context.Context, coordinator, selfURL string, opts JoinOptions) error {
	reg, err := registerWorker(ctx, coordinator, selfURL, opts)
	if err != nil {
		return fmt.Errorf("fabric: join %s: %w", coordinator, err)
	}
	if opts.OnState != nil {
		opts.OnState("registered " + reg.ID)
	}
	go func() {
		t := time.NewTicker(reg.interval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			ok, err := heartbeatWorker(ctx, coordinator, reg.ID, opts)
			if err != nil {
				if opts.OnState != nil && ctx.Err() == nil {
					opts.OnState("heartbeat lost: " + err.Error())
				}
				continue
			}
			if !ok {
				// Retired (or the coordinator restarted): join again under
				// whatever ID it hands out now.
				if r2, err := registerWorker(ctx, coordinator, selfURL, opts); err == nil {
					reg = r2
					t.Reset(reg.interval())
					if opts.OnState != nil {
						opts.OnState("re-registered " + reg.ID)
					}
				}
			}
		}
	}()
	return nil
}

// registerWorker POSTs one registration.
func registerWorker(ctx context.Context, coordinator, selfURL string, opts JoinOptions) (*registerResponse, error) {
	body, _ := json.Marshal(registerRequest{URL: selfURL})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(coordinator, "/")+"/v1/workers/register", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	SetAuth(req, opts.Token)
	resp, err := opts.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("register: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var reg registerResponse
	if err := json.Unmarshal(data, &reg); err != nil || reg.ID == "" {
		return nil, fmt.Errorf("register: malformed response %q", data)
	}
	return &reg, nil
}

// heartbeatWorker POSTs one heartbeat; ok=false means the coordinator no
// longer knows the ID.
func heartbeatWorker(ctx context.Context, coordinator, id string, opts JoinOptions) (ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimSuffix(coordinator, "/")+"/v1/workers/"+id+"/heartbeat", nil)
	if err != nil {
		return false, err
	}
	SetAuth(req, opts.Token)
	resp, err := opts.client().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNoContent:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("heartbeat: status %d", resp.StatusCode)
	}
}

// FetchWorkers reads a coordinator's live worker URLs once.
func FetchWorkers(ctx context.Context, coordinator, token string, client *http.Client) ([]string, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(coordinator, "/")+"/v1/workers", nil)
	if err != nil {
		return nil, err
	}
	SetAuth(req, token)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("workers: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var doc workersResponse
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("workers: malformed response %q", data)
	}
	urls := make([]string, 0, len(doc.Workers))
	for _, w := range doc.Workers {
		urls = append(urls, w.URL)
	}
	return urls, nil
}

// Watcher polls a coordinator's registry and exposes the live worker set
// to a sweep dispatcher: WorkerURLs snapshots the current membership and
// Updates signals whenever it changed, so a dispatcher can hand unowned
// shards to workers that join mid-run. It implements the dispatcher's
// WorkerSource contract.
type Watcher struct {
	mu      sync.Mutex
	urls    []string
	updates chan struct{}
	cancel  context.CancelFunc
}

// WatchWorkers starts polling the coordinator every interval (0 =
// DefaultHeartbeatInterval/2), using client for the fetches (nil = 10s
// default; TLS fleets pass a client built from ClientTLS). The initial
// fetch is synchronous so the caller starts with a real snapshot — an
// unreachable coordinator fails here rather than in the middle of a
// dispatch. Stop with Close, after which Updates is closed, so a
// consumer ranging over it terminates.
func WatchWorkers(ctx context.Context, coordinator, token string, interval time.Duration, client *http.Client) (*Watcher, error) {
	if interval <= 0 {
		interval = DefaultHeartbeatInterval / 2
	}
	urls, err := FetchWorkers(ctx, coordinator, token, client)
	if err != nil {
		return nil, fmt.Errorf("fabric: coordinator %s: %w", coordinator, err)
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &Watcher{urls: urls, updates: make(chan struct{}, 1), cancel: cancel}
	go func() {
		// Closing updates on exit is part of the Watcher contract: it is
		// the only way a consumer draining Updates learns the source is
		// gone rather than merely quiet.
		defer close(w.updates)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-wctx.Done():
				return
			case <-t.C:
			}
			urls, err := FetchWorkers(wctx, coordinator, token, client)
			if err != nil {
				continue
			}
			w.mu.Lock()
			changed := !slices.Equal(urls, w.urls)
			w.urls = urls
			w.mu.Unlock()
			if changed {
				select {
				case w.updates <- struct{}{}:
				default:
				}
			}
		}
	}()
	return w, nil
}

// WorkerURLs snapshots the live membership.
func (w *Watcher) WorkerURLs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.urls...)
}

// Updates signals membership changes; the channel carries no payload,
// call WorkerURLs for the new set. It is closed when the watcher stops
// (Close, or the parent context ending), so consumers ranging over it
// terminate instead of blocking forever.
func (w *Watcher) Updates() <-chan struct{} { return w.updates }

// Close stops the poll loop; the Updates channel closes once the loop
// has exited.
func (w *Watcher) Close() { w.cancel() }
