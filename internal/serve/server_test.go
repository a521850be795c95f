package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nemesis/internal/experiments"
	"nemesis/internal/experiments/sweep"
)

// cheapSpec is a cluster cell small enough to simulate in milliseconds.
func cheapSpec(seed int64) experiments.Spec {
	return experiments.Spec{
		Kind:              experiments.KindCluster,
		Machines:          1,
		DomainsPerMachine: 2,
		Servers:           1,
		Measure:           experiments.Duration(50 * time.Millisecond),
		Seed:              seed,
	}
}

func postSpec(t *testing.T, ts *httptest.Server, path string, spec experiments.Spec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(&Entry{Key: "a", Body: []byte("A")})
	c.Put(&Entry{Key: "b", Body: []byte("B")})
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(&Entry{Key: "c", Body: []byte("C")})
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if n := c.Len(); n != 2 {
		t.Errorf("len = %d, want 2", n)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits/%d misses, want 2/1", hits, misses)
	}
}

// TestSubmitPrefersCacheOverFinishedActiveJob pins that a resubmission
// after a job's result is cached is a hit even while the finished job is
// still in the active set.
func TestSubmitPrefersCacheOverFinishedActiveJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	j, _, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Finished()
	// Recreate the window between a job's completion and its worker's
	// cleanup: the result is cached and the job is still in the active set.
	for {
		s.mu.Lock()
		_, active := s.active[j.Key]
		if !active {
			s.active[j.Key] = j
		}
		s.mu.Unlock()
		if !active {
			break
		}
		time.Sleep(time.Millisecond)
	}
	again, coalesced, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || coalesced {
		t.Errorf("resubmission: Cached=%v coalesced=%v, want a cache hit", again.Cached, coalesced)
	}
}

// TestRunCacheHit pins the cache-correctness acceptance criterion: two
// submissions of an identical spec produce byte-identical bodies, the
// second marked as a hit with no new simulation.
func TestRunCacheHit(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := cheapSpec(1)
	first := postSpec(t, ts, "/run", spec)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d", first.StatusCode)
	}
	if xc := first.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first run X-Cache = %q, want miss", xc)
	}
	body1 := readBody(t, first)

	// Resubmit with noisy-but-equivalent spelling: explicit defaults plus
	// irrelevant fields must still hit the same cache line.
	resp2, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(
		`{"seed":1,"measure":"50ms","servers":1,"domains_per_machine":2,"machines":1,"kind":"cluster","figure":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("second run X-Cache = %q, want hit", xc)
	}
	body2 := readBody(t, resp2)
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit returned different bytes")
	}
	if runs := s.Runs(); runs != 1 {
		t.Errorf("runs = %d, want 1 (second submission must not simulate)", runs)
	}
}

// TestSingleFlight pins the coalescing criterion: N concurrent identical
// submissions execute exactly one sweep.
func TestSingleFlight(t *testing.T) {
	release := make(chan struct{})
	var ran sync.WaitGroup
	ran.Add(1)
	var once sync.Once
	s := newServer(Config{Workers: 2}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		once.Do(ran.Done)
		<-release
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()

	spec := cheapSpec(7)
	first, coalesced, err := s.Submit(spec)
	if err != nil || coalesced {
		t.Fatalf("first submit: %v coalesced=%v", err, coalesced)
	}
	ran.Wait() // job is in a worker, blocked on release
	const n = 40
	for i := 0; i < n; i++ {
		j, coalesced, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !coalesced || j != first {
			t.Fatalf("submission %d: coalesced=%v job=%s, want the in-flight job %s", i, coalesced, j.ID, first.ID)
		}
	}
	close(release)
	<-first.Finished()
	if runs := s.Runs(); runs != 1 {
		t.Errorf("runs = %d, want 1 for %d concurrent identical submissions", runs, n+1)
	}
}

// TestQueueBound pins graceful degradation: with one busy worker and the
// queue at depth, further submissions get 429 + Retry-After, and distinct
// specs already accepted all finish.
func TestQueueBound(t *testing.T) {
	release := make(chan struct{})
	s := newServer(Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		<-release
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill: one running + two queued. The runner may not have dequeued the
	// first job yet, so accept up to 3 successes before demanding 429s.
	var accepted, rejected []int64
	for i := int64(0); i < 6; i++ {
		resp := postSpec(t, ts, "/jobs", cheapSpec(100+i))
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted = append(accepted, i)
		case http.StatusTooManyRequests:
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("429 without Retry-After")
			}
			rejected = append(rejected, i)
		default:
			t.Fatalf("submission %d: unexpected status %d", i, resp.StatusCode)
		}
		readBody(t, resp)
		if i == 0 {
			// Give the single worker a moment to dequeue job 0 so the
			// occupancy picture is deterministic: 1 running + depth 2.
			deadline := time.Now().Add(2 * time.Second)
			for len(s.queue) != 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if len(accepted) != 3 {
		t.Errorf("accepted %d submissions (%v), want 3 (1 running + queue depth 2)", len(accepted), accepted)
	}
	if len(rejected) != 3 {
		t.Errorf("rejected %d submissions (%v), want 3", len(rejected), rejected)
	}
	close(release)
	for _, i := range accepted {
		j, _, err := s.Submit(cheapSpec(100 + i)) // coalesces onto the live job
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Finished():
		case <-time.After(5 * time.Second):
			t.Fatalf("accepted job %d never finished", i)
		}
	}
}

// TestSSEProgress drives a 5-cell fake sweep and asserts the event stream
// carries per-cell completions up to 5/5 and a terminal done event.
func TestSSEProgress(t *testing.T) {
	step := make(chan struct{})
	s := newServer(Config{Workers: 1}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		_, err := sweep.MapWorkersContext(ctx, 1, make([]int, 5), func(_ context.Context, i int) (int, error) {
			<-step
			return i, nil
		})
		if err != nil {
			return nil, err
		}
		return &experiments.Outcome{Result: &experiments.Result{Spec: spec}}, nil
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	go func() {
		for i := 0; i < 5; i++ {
			step <- struct{}{}
		}
	}()

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
			if ev.State == JobDone || ev.State == JobFailed {
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.State != JobDone || last.Done != 5 || last.Total != 5 {
		t.Errorf("terminal event = %+v, want done 5/5", last)
	}
	sawProgress := false
	for _, ev := range events {
		if ev.State == JobRunning && ev.Total == 5 && ev.Done > 0 {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Errorf("no per-cell progress event observed in %+v", events)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newServer(Config{Workers: 1}, func(ctx context.Context, spec experiments.Spec, workers int) (*experiments.Outcome, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, err := s.Submit(cheapSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is running, then cancel over HTTP.
	deadline := time.Now().Add(5 * time.Second)
	for j.Snapshot().State != JobRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	select {
	case <-j.Finished():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job never finished")
	}
	if st := j.Snapshot().State; st != JobCanceled {
		t.Errorf("state = %s, want canceled", st)
	}
	// A cancelled run must not poison the cache: resubmitting simulates.
	if e, ok := s.cache.Get(j.Key); ok {
		t.Errorf("cancelled job cached an entry: %+v", e)
	}
}

// TestCLIAndServerBytesIdentical pins the satellite contract: the CLI JSON
// export path (experiments.RunSpec + EncodeResult) and the HTTP API return
// byte-identical bodies for the same spec.
func TestCLIAndServerBytesIdentical(t *testing.T) {
	spec := experiments.Spec{
		Kind:              experiments.KindCluster,
		Machines:          2,
		DomainsPerMachine: 10,
		Measure:           experiments.Duration(100 * time.Millisecond),
		Seed:              3,
	}
	out, err := experiments.RunSpec(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cliBody, err := experiments.EncodeResult(out.Result)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postSpec(t, ts, "/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d", resp.StatusCode)
	}
	apiBody := readBody(t, resp)
	if !bytes.Equal(cliBody, apiBody) {
		t.Errorf("CLI and API bodies differ:\nCLI:\n%s\nAPI:\n%s", cliBody, apiBody)
	}
}

func TestTraceAndAuditArtifacts(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := experiments.Spec{
		Kind:    experiments.KindFigure,
		Figure:  8,
		Measure: experiments.Duration(2 * time.Second),
		Trace:   true,
	}
	resp := postSpec(t, ts, "/jobs", spec)
	var sub submitResponse
	if err := json.Unmarshal(readBody(t, resp), &sub); err != nil {
		t.Fatal(err)
	}
	j, ok := s.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s unknown", sub.ID)
	}
	select {
	case <-j.Finished():
	case <-time.After(2 * time.Minute):
		t.Fatal("figure job never finished")
	}

	for _, path := range []string{"/trace", "/audit"} {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + sub.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		var v any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Errorf("%s artifact is not JSON: %v", path, err)
		}
	}

	// An untraced spec has no artifacts: explicit 404, not an empty body.
	resp2 := postSpec(t, ts, "/run", cheapSpec(1))
	readBody(t, resp2)
	var id string
	s.mu.Lock()
	for _, job := range s.jobs {
		if job.Spec.Kind == experiments.KindCluster {
			id = job.ID
		}
	}
	s.mu.Unlock()
	aresp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, aresp)
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("untraced trace fetch: status %d, want 404", aresp.StatusCode)
	}
}

func TestBadSpecRejected(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"warp"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if resp2, err := ts.Client().Get(ts.URL + "/jobs/nope"); err == nil {
		readBody(t, resp2)
		if resp2.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp2.StatusCode)
		}
	}
}

// TestMalformedSpecRejectedLoudly: a misspelt field, an oversized body and
// a negative duration must each fail with a 400 naming the cause, never run
// the kind's defaults.
func TestMalformedSpecRejectedLoudly(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	huge := `{"kind":"cluster","pad":"` + strings.Repeat("x", 3<<20) + `"}`
	for _, tc := range []struct{ name, body, cause string }{
		{"unknown field", `{"kind":"figure","figure":8,"meassure":"5s"}`, `unknown field "meassure"`},
		{"oversized body", huge, "exceeds"},
		{"negative measure", `{"kind":"figure","figure":8,"measure":"-5s"}`, `"measure"`},
		{"negative machines", `{"kind":"cluster","machines":-2}`, `"machines"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range []string{"/jobs", "/run"} {
				resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				body := readBody(t, resp)
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s: status %d (%s), want 400", path, resp.StatusCode, body)
				}
				var e struct{ Error string }
				if err := json.Unmarshal(body, &e); err != nil {
					t.Fatalf("%s: error body %s: %v", path, body, err)
				}
				if !strings.Contains(e.Error, tc.cause) {
					t.Errorf("%s: error %q does not name %s", path, e.Error, tc.cause)
				}
			}
		})
	}
	if runs := s.Runs(); runs != 0 {
		t.Errorf("%d malformed specs ran", runs)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 9})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	readBody(t, postSpec(t, ts, "/run", cheapSpec(5)))
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.Unmarshal(readBody(t, resp), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["queue_depth"].(float64) != 9 || stats["runs"].(float64) != 1 {
		t.Errorf("stats = %v", stats)
	}
	var health bytes.Buffer
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Write(readBody(t, hr))
	if !strings.Contains(health.String(), "ok") {
		t.Errorf("healthz = %q", health.String())
	}
}
