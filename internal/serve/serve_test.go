package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	nocdr "github.com/nocdr/nocdr"
	"github.com/nocdr/nocdr/internal/regular"
)

// ringDesign builds the paper's Figure 1 four-switch ring with its four
// cyclic flows — the canonical removable-deadlock workload — and returns
// its JSON-marshaled pieces.
func ringDesign(t *testing.T) (topoJSON, trafficJSON, routesJSON json.RawMessage) {
	t.Helper()
	top := nocdr.NewTopology("figure1")
	for i := 0; i < 4; i++ {
		sw := top.AddSwitch("")
		if err := top.AttachCore(i, sw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		top.MustAddLink(nocdr.SwitchID(i), nocdr.SwitchID((i+1)%4))
	}
	g := nocdr.NewTraffic("figure1-flows")
	for i := 0; i < 4; i++ {
		g.AddCore("")
	}
	g.MustAddFlow(0, 3, 100)
	g.MustAddFlow(2, 0, 100)
	g.MustAddFlow(3, 1, 100)
	g.MustAddFlow(0, 2, 100)
	routes := nocdr.NewRouteTable(4)
	ch := func(ids ...int) []nocdr.Channel {
		out := make([]nocdr.Channel, len(ids))
		for i, id := range ids {
			out[i] = nocdr.Chan(nocdr.LinkID(id), 0)
		}
		return out
	}
	routes.Set(0, ch(0, 1, 2))
	routes.Set(1, ch(2, 3))
	routes.Set(2, ch(3, 0))
	routes.Set(3, ch(0, 1))

	mustJSON := func(v json.Marshaler) json.RawMessage {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return mustJSON(top), mustJSON(g), mustJSON(routes)
}

// newTestServer starts a Server over httptest and tears both down with
// the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts a JSON body and decodes the JSON answer.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches a JSON document.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls a job until it leaves the running states.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

type submitResponse struct {
	ID string `json:"id"`
}

// foreverDesign builds a 2-switch acyclic design (one link, one flow)
// whose open-loop saturation simulation neither deadlocks nor drains —
// it runs until its cycle horizon or a cancellation, whichever first.
func foreverDesign(t *testing.T) (topoJSON, trafficJSON, routesJSON json.RawMessage) {
	t.Helper()
	top := nocdr.NewTopology("forever")
	s0 := top.AddSwitch("")
	s1 := top.AddSwitch("")
	if err := top.AttachCore(0, s0); err != nil {
		t.Fatal(err)
	}
	if err := top.AttachCore(1, s1); err != nil {
		t.Fatal(err)
	}
	top.MustAddLink(s0, s1)
	g := nocdr.NewTraffic("forever-flows")
	g.AddCore("")
	g.AddCore("")
	g.MustAddFlow(0, 1, 100)
	routes := nocdr.NewRouteTable(1)
	routes.Set(0, []nocdr.Channel{nocdr.Chan(0, 0)})
	mustJSON := func(v json.Marshaler) json.RawMessage {
		data, err := v.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return mustJSON(top), mustJSON(g), mustJSON(routes)
}

// submitForeverSim submits the non-terminating simulation job.
func submitForeverSim(t *testing.T, base string) string {
	t.Helper()
	topo, traffic, routes := foreverDesign(t)
	var sub submitResponse
	code := postJSON(t, base+"/v1/simulate", map[string]any{
		"topology": topo, "traffic": traffic, "routes": routes,
		"config": map[string]any{"max_cycles": int64(4_000_000_000), "load_factor": 1.0},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit forever sim: status %d", code)
	}
	return sub.ID
}

// waitState polls until the job reaches want, failing fast if it lands
// on a different terminal state instead.
func waitState(t *testing.T, base, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		if st.State == want {
			return
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached terminal state %s (error %q) while waiting for %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRemoveJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	topo, _, routes := ringDesign(t)

	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/remove", map[string]any{
		"topology": topo, "routes": routes,
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/remove: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", st.State, st.Error)
	}
	res, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var rr removeResult
	if err := json.Unmarshal(res, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.DeadlockFree {
		t.Fatal("remove job result is not deadlock-free")
	}
	if rr.AddedVCs < 1 || rr.Iterations < 1 {
		t.Fatalf("expected at least one break, got vcs=%d iters=%d", rr.AddedVCs, rr.Iterations)
	}
	if st.Events == 0 {
		t.Fatal("expected progress events (cycle_broken/vc_added), got none")
	}
}

func TestRemoveRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if code := postJSON(t, ts.URL+"/v1/remove", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty body accepted: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/remove", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
}

// TestUnknownRemovalSettingsRejected pins the 400, body included, that
// an unknown break-direction policy or cycle selection gets at
// submission on /v1/remove and /v1/sweep.
func TestUnknownRemovalSettingsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	topo, _, routes := ringDesign(t)
	grid := map[string]any{"benchmarks": []string{"D26_media"}, "switch_counts": []int{8}}
	for _, c := range []struct {
		path string
		body map[string]any
		want string
	}{
		{"/v1/remove", map[string]any{"topology": topo, "routes": routes,
			"options": map[string]any{"policy": "sideways"}}, `invalid input: unknown policy "sideways"`},
		{"/v1/remove", map[string]any{"topology": topo, "routes": routes,
			"options": map[string]any{"selection": "loudest"}}, `invalid input: unknown selection "loudest"`},
		{"/v1/sweep", map[string]any{"grid": grid,
			"options": map[string]any{"policy": "sideways"}}, `invalid input: unknown policy "sideways"`},
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+c.path, c.body, &e); code != http.StatusBadRequest || e.Error != c.want {
			t.Errorf("%s %v: status %d, error %q; want 400, %q", c.path, c.body["options"], code, e.Error, c.want)
		}
	}
}

// TestConcurrentJobs is the acceptance pin: >= 8 jobs in flight at once
// against one server, all finishing deadlock-free, race-clean under
// -race.
func TestConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 8, SweepParallel: 2})
	topo, traffic, routes := ringDesign(t)

	const n = 12
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sub submitResponse
			var code int
			switch i % 3 {
			case 0:
				code = postJSON(t, ts.URL+"/v1/remove", map[string]any{
					"topology": topo, "routes": routes,
				}, &sub)
			case 1:
				code = postJSON(t, ts.URL+"/v1/simulate", map[string]any{
					"topology": topo, "traffic": traffic, "routes": routes,
					"config": map[string]any{"max_cycles": 3000, "load_factor": 0.3, "epoch_cycles": 500},
				}, &sub)
			case 2:
				code = postJSON(t, ts.URL+"/v1/sweep", map[string]any{
					"grid": map[string]any{
						"benchmarks":    []string{"D26_media"},
						"switch_counts": []int{8},
						"policies":      []string{"smallest"},
						"seeds":         []int64{0},
					},
				}, &sub)
			}
			if code != http.StatusAccepted {
				t.Errorf("job %d: submit status %d", i, code)
				return
			}
			ids[i] = sub.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		st := waitTerminal(t, ts.URL, id)
		if st.State != StateDone {
			t.Errorf("job %d (%s): state %s error %q", i, id, st.State, st.Error)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	id := submitForeverSim(t, ts.URL)
	waitState(t, ts.URL, id, StateRunning)
	if code := postJSON(t, ts.URL+"/v1/jobs/"+id+"/cancel", nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}
	st := waitTerminal(t, ts.URL, id)
	if st.State != StateCanceled {
		t.Fatalf("state %s after cancel, want canceled", st.State)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", st.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	topo, _, routes := ringDesign(t)

	// Occupy the single worker with a never-ending job, then queue
	// another and cancel it before it starts.
	blocker := submitForeverSim(t, ts.URL)
	waitState(t, ts.URL, blocker, StateRunning)
	var queued submitResponse
	postJSON(t, ts.URL+"/v1/remove", map[string]any{"topology": topo, "routes": routes}, &queued)

	if code := postJSON(t, ts.URL+"/v1/jobs/"+queued.ID+"/cancel", nil, nil); code != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", code)
	}
	st := waitTerminal(t, ts.URL, queued.ID)
	if st.State != StateCanceled {
		t.Fatalf("queued job state %s, want canceled", st.State)
	}
	// Unblock the worker so Cleanup's Close does not wait on a 4e9-cycle
	// simulation.
	if _, err := s.cancelJob(blocker); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts.URL, blocker)
}

// TestEventsSSE streams a remove job's feed and checks replay order and
// the terminal state event.
func TestEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	topo, _, routes := ringDesign(t)

	var sub submitResponse
	postJSON(t, ts.URL+"/v1/remove", map[string]any{"topology": topo, "routes": routes}, &sub)
	waitTerminal(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var kinds []string
	var sawState bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if k, ok := strings.CutPrefix(line, "event: "); ok {
			kinds = append(kinds, k)
			if k == "state" {
				sawState = true
			}
		}
	}
	if !sawState {
		t.Fatalf("no terminal state event in stream: %v", kinds)
	}
	var broke, added bool
	for _, k := range kinds {
		broke = broke || k == "cycle_broken"
		added = added || k == "vc_added"
	}
	if !broke || !added {
		t.Fatalf("expected cycle_broken and vc_added events, got %v", kinds)
	}
}

func TestSweepJobReportShape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, SweepParallel: 2})
	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid": map[string]any{
			"benchmarks":    []string{"D26_media"},
			"switch_counts": []int{8, 11},
		},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("sweep state %s error %q", st.State, st.Error)
	}
	data, _ := json.Marshal(st.Result)
	var rep nocdr.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("sweep results %d, want 2", len(rep.Results))
	}
	if st.Events < 2 {
		t.Fatalf("expected >= 2 sweep_cell events, got %d", st.Events)
	}
	// Unknown benchmark specs must be rejected at submission, not
	// deferred to the job.
	if code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid": map[string]any{"benchmarks": []string{"no_such_bench"}},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid grid accepted: status %d", code)
	}
}

// TestSweepRejectsOversizedGrid: a sweep body under the size limit can
// still name an enormous grid, through its axes' cross product or one
// spec's core count. Submission must reject it with a 400, where it used
// to be accepted and then bring the process down sizing the job list or
// building the design.
func TestSweepRejectsOversizedGrid(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const n = 100000
	switches, routings, policies, seeds := make([]int, n), make([]string, n), make([]string, n), make([]int64, n)
	for i := range switches {
		switches[i], routings[i], policies[i], seeds[i] = i+1, "dor", "smallest", int64(i)
	}
	for name, grid := range map[string]map[string]any{
		"100000 entries per axis": {
			"benchmarks":    []string{"D36_8"},
			"switch_counts": switches,
			"routings":      routings,
			"policies":      policies,
			"seeds":         seeds,
		},
		"a mesh with 2^63-1 columns": {"benchmarks": []string{"mesh:99999999999999999999"}},
		"a 3000x3000 mesh":           {"benchmarks": []string{"mesh:3000x3000"}},
		"3000000 random cores":       {"benchmarks": []string{"rand:3000000x2"}},
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{"grid": grid}, &e); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
		if !strings.Contains(e.Error, "invalid input") {
			t.Errorf("%s: error %q does not report invalid input", name, e.Error)
		}
	}
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after oversized sweeps: %d %v", code, hz)
	}
}

// TestRemoveRejectsOversizedTopology pins topology.MaxChannels at the
// service boundary: a remove body declaring 2^63-1 VCs on one link is
// answered 400 at once instead of occupying the decoder for good.
func TestRemoveRejectsOversizedTopology(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	_, _, routes := ringDesign(t)
	topo := json.RawMessage(`{"name":"huge","switches":[{"id":0,"name":""},{"id":1,"name":""}],` +
		`"links":[{"id":0,"from":0,"to":1,"vcs":9223372036854775807},{"id":1,"from":1,"to":0,"vcs":1}]}`)
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/remove", map[string]any{"topology": topo, "routes": routes}, &e); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if !strings.Contains(e.Error, "invalid input") {
		t.Errorf("error %q does not report invalid input", e.Error)
	}
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz after an oversized topology: %d %v", code, hz)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var hz map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, hz)
	}
	if hz["role"] != "coordinator" {
		t.Fatalf("healthz role %v, want coordinator", hz["role"])
	}
	if _, ok := hz["uptime_ms"]; !ok {
		t.Fatalf("healthz missing uptime_ms: %v", hz)
	}
	if _, ok := hz["workers"]; !ok {
		t.Fatalf("healthz missing workers: %v", hz)
	}
}

// TestQueueOverflow pins the backpressure path behind the HTTP 429.
func TestQueueOverflow(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()
	block := make(chan struct{})
	defer close(block) // before Close in LIFO order, so the pool drains
	started := make(chan struct{})
	blocked := func(ctx context.Context, j *Job) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-block
		return nil, nil
	}
	// Occupy the worker and wait until it has actually popped the job
	// off the queue, then fill the single queue slot.
	if _, err := s.submit("test", blocked); err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started
	if _, err := s.submit("test", blocked); err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	// Worker busy, queue full: the next submission must bounce.
	_, err := s.submit("test", blocked)
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("expected queue-full error, got %v", err)
	}
}

// TestRetentionEvictsOldestTerminalJobs: a full job table evicts exactly
// the oldest terminal jobs, as many as bring it below the cap, and keeps
// queued and running jobs, and the terminal jobs it does not need to
// evict, in submission order.
func TestRetentionEvictsOldestTerminalJobs(t *testing.T) {
	states := []State{
		StateQueued, StateDone, StateRunning, StateFailed, StateDone,
		StateCanceled, StateQueued, StateDone, StateRunning,
	}
	s := &Server{opts: Options{MaxRetainedJobs: 7}, jobs: map[string]*Job{}}
	for i, st := range states {
		id := fmt.Sprintf("job-%d", i)
		s.jobs[id] = &Job{ID: id, state: st}
		s.order = append(s.order, id)
	}
	check := func(want ...int) {
		t.Helper()
		var ids []string
		for _, i := range want {
			ids = append(ids, fmt.Sprintf("job-%d", i))
		}
		if !slices.Equal(s.order, ids) {
			t.Fatalf("order %v, want %v", s.order, ids)
		}
		if len(s.jobs) != len(ids) {
			t.Fatalf("%d jobs in the table, want %d", len(s.jobs), len(ids))
		}
		for _, id := range ids {
			if s.jobs[id] == nil {
				t.Fatalf("job %s evicted", id)
			}
		}
	}
	// Nine jobs, cap seven: the submission about to be added needs three
	// slots, so the three oldest terminal jobs (1, 3, 4) go.
	s.evictLocked()
	check(0, 2, 5, 6, 7, 8)
	// Below the cap: nothing goes.
	s.evictLocked()
	check(0, 2, 5, 6, 7, 8)
	// One over: only the oldest terminal job left (5) goes.
	s.jobs["job-9"] = &Job{ID: "job-9", state: StateQueued}
	s.order = append(s.order, "job-9")
	s.evictLocked()
	check(0, 2, 6, 7, 8, 9)
	// Not enough terminal jobs: every one goes, live jobs stay.
	s.opts.MaxRetainedJobs = 2
	s.evictLocked()
	check(0, 2, 6, 8, 9)
}

// TestSweepJobAdaptiveRouting pins that /v1/sweep accepts the routing
// and fault axes: a faulted odd-even mesh cell with the simulation stage
// must come back verified (zero post-removal deadlocks) with the routing
// echoed in the report.
func TestSweepJobAdaptiveRouting(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	var sub struct {
		ID string `json:"id"`
	}
	code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid": map[string]any{
			"benchmarks": []string{"mesh:4"},
			"routings":   []string{"odd-even", "min-adaptive"},
			"faults":     2,
			"max_paths":  4,
		},
		"simulate": true,
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit adaptive sweep: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("sweep state %s error %q", st.State, st.Error)
	}
	data, _ := json.Marshal(st.Result)
	var rep nocdr.SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("sweep results %d, want 2", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Error != "" {
			t.Fatalf("cell %+v failed: %s", r.Job, r.Error)
		}
		if r.Routing == "" || r.Faults != 2 {
			t.Errorf("cell lost its routing/fault axes: %+v", r.Job)
		}
		if r.Sim == nil || r.Sim.PostDeadlock {
			t.Errorf("cell %+v: missing or failed verification stage", r.Job)
		}
	}
	// An unknown routing must be rejected at submission time.
	if code := postJSON(t, ts.URL+"/v1/sweep", map[string]any{
		"grid": map[string]any{"benchmarks": []string{"mesh:4"}, "routings": []string{"zig-zag"}},
	}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown routing accepted with status %d", code)
	}
}

// TestSweepShardFilter pins the server side of the sharded backend: a
// ?shard=i/n submission evaluates only the cells the stable hash assigns
// to shard i, the shards partition the grid exactly, and a malformed or
// out-of-range filter is rejected at submission.
func TestSweepShardFilter(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, SweepParallel: 2})
	grid := map[string]any{
		"benchmarks":    []string{"D26_media"},
		"switch_counts": []int{8, 11, 14, 20},
	}
	const shards = 2
	seen := map[string]int{}
	total := 0
	for i := 0; i < shards; i++ {
		var sub submitResponse
		code := postJSON(t, fmt.Sprintf("%s/v1/sweep?shard=%d/%d", ts.URL, i, shards), map[string]any{"grid": grid}, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit shard %d: status %d", i, code)
		}
		st := waitTerminal(t, ts.URL, sub.ID)
		if st.State != StateDone {
			t.Fatalf("shard %d state %s error %q", i, st.State, st.Error)
		}
		// The dispatching coordinator reads only a shard job's terminal
		// state, so the job records no sweep_cell events.
		if st.Events != 0 {
			t.Fatalf("shard %d job recorded %d event(s), want 0", i, st.Events)
		}
		data, _ := json.Marshal(st.Result)
		var rep nocdr.SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			seen[r.Job.Key()]++
		}
		total += len(rep.Results)
	}
	if total != 4 {
		t.Fatalf("shards hold %d cells together, want the grid's 4", total)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("cell %q appeared in %d shards", k, n)
		}
	}
	for _, bad := range []string{"x", "2/2", "-1/2", "1", "1/0", "1/2/3"} {
		if code := postJSON(t, ts.URL+"/v1/sweep?shard="+bad, map[string]any{"grid": grid}, nil); code != http.StatusBadRequest {
			t.Errorf("shard filter %q accepted with status %d", bad, code)
		}
	}
}

// reconfigDesignJSON builds a removed 4x4 odd-even mesh design bundle
// (all-to-all traffic) plus two safe sequential faults for it.
func reconfigDesignJSON(t *testing.T) (json.RawMessage, []int) {
	t.Helper()
	tr := nocdr.NewTraffic("all2all_16")
	for i := 0; i < 16; i++ {
		tr.AddCore("")
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s != d {
				tr.MustAddFlow(nocdr.CoreID(s), nocdr.CoreID(d), 10)
			}
		}
	}
	sess := nocdr.NewSession(nocdr.WithMaxPaths(2))
	d, err := sess.NewReconfigDesign(context.Background(), 4, 4, false, "odd-even", tr)
	if err != nil {
		t.Fatal(err)
	}
	data, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := regular.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := regular.SelectFaults(grid, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ints := make([]int, len(faults))
	for i, f := range faults {
		ints[i] = int(f)
	}
	return data, ints
}

// TestReconfigureJobLifecycle submits a two-fault reconfigure job and
// checks the result document (evolved design + one delta per event) and
// the reconfig_stage/reconfig_delta entries in the SSE feed.
func TestReconfigureJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	design, faults := reconfigDesignJSON(t)

	var sub submitResponse
	code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{
		"design":  design,
		"faults":  faults,
		"options": map[string]any{"skip_sim": true},
	}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/reconfigure: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", st.State, st.Error)
	}
	data, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var rr reconfigureResult
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Deltas) != len(faults) {
		t.Fatalf("deltas %d, want %d", len(rr.Deltas), len(faults))
	}
	if rr.VCsAdded < 0 {
		t.Fatalf("vcs_added %d < 0", rr.VCsAdded)
	}
	for i, d := range rr.Deltas {
		if !d.Acyclic || d.Fault != faults[i] {
			t.Fatalf("delta %d: %+v", i, d)
		}
	}
	if rr.Design == nil {
		t.Fatal("result is missing the evolved design")
	}
	if err := rr.Design.Verify(); err != nil {
		t.Fatalf("evolved design invalid: %v", err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if k, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			kinds[k]++
		}
	}
	// Each fault walks rerouting → replaying → simulating (skipped here)
	// → committed, then reports its delta.
	if kinds["reconfig_stage"] < 3*len(faults) {
		t.Fatalf("reconfig_stage events %d, want >= %d (kinds %v)", kinds["reconfig_stage"], 3*len(faults), kinds)
	}
	if kinds["reconfig_delta"] != len(faults) {
		t.Fatalf("reconfig_delta events %d, want %d (kinds %v)", kinds["reconfig_delta"], len(faults), kinds)
	}
}

// TestReconfigureRejectsBadInput pins the submission-time error surface.
func TestReconfigureRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	design, faults := reconfigDesignJSON(t)
	if code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty body accepted: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{"design": design}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing faults accepted: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{
		"design": design, "faults": faults,
		"options": map[string]any{"policy": "sideways"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown policy accepted: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{
		"design": design, "faults": faults,
		"options": map[string]any{"selection": "loudest"},
	}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown selection accepted: status %d", code)
	}
	// A fault the design cannot survive (out of range) fails the job, not
	// the submission — it is a runtime property of the design.
	var sub submitResponse
	if code := postJSON(t, ts.URL+"/v1/reconfigure", map[string]any{
		"design": design, "faults": []int{99999},
	}, &sub); code != http.StatusAccepted {
		t.Fatalf("out-of-range fault rejected at submission: status %d", code)
	}
	st := waitTerminal(t, ts.URL, sub.ID)
	if st.State != StateFailed {
		t.Fatalf("job state %s, want failed", st.State)
	}
}

// TestLocalCluster smokes the in-process worker cluster: every worker
// answers /healthz, and shutdown is idempotent enough to call once.
func TestLocalCluster(t *testing.T) {
	urls, shutdown, err := LocalCluster(3, Options{Workers: 1, SweepParallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if len(urls) != 3 {
		t.Fatalf("got %d workers, want 3", len(urls))
	}
	for _, u := range urls {
		var health map[string]any
		if code := getJSON(t, u+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
			t.Fatalf("worker %s unhealthy: %d %v", u, code, health)
		}
	}
	if _, _, err := LocalCluster(0, Options{}); err == nil {
		t.Fatal("zero-size cluster accepted")
	}
}
