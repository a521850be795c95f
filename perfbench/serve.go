package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
	"nemesis/internal/serve"
)

// Request latency classes.
const (
	latHit       = "hit"       // answered from the result cache
	latPooled    = "pooled"    // forked a resident warmed world
	latCold      = "cold"      // booted (and for a new prefix, warmed) a world
	latCoalesced = "coalesced" // joined an identical request in flight
)

// requestSample is one answered request.
type requestSample struct {
	Ms    float64
	Class string
}

// serveTotals are a run's service counters, from GET /stats.
type serveTotals struct {
	Requests   int64
	CacheHits  int64
	WarmHits   int64
	WarmMisses int64
	Runs       int64
	Wall       time.Duration
}

func (t *serveTotals) add(o serveTotals) {
	t.Requests += o.Requests
	t.CacheHits += o.CacheHits
	t.WarmHits += o.WarmHits
	t.WarmMisses += o.WarmMisses
	t.Runs += o.Runs
	t.Wall += o.Wall
}

// serveWorkers caps the server's concurrent jobs and the client loop.
func serveWorkers() int { return min(2, runtime.NumCPU()) }

func serveWorkload() *workload {
	w := &workload{
		name:   "serve_mixed",
		why:    "closed loop of POST /run on a fresh server: cache hits, warm-pool forks and cold boots in a synthetic, unverified mix; the only workload driving serve and core.Fork per request",
		inputs: 8,
	}
	w.describe = func(seed int64, idx int) string {
		return fmt.Sprintf("%s clients=%d workers=%d sweep_workers=1",
			serveShares(genServe(seed, idx)), serveWorkers(), serveWorkers())
	}
	w.run = func(seed int64, idx int, traced bool) *runResult {
		return runServe(genServe(seed, idx), traced)
	}
	w.firstCheck = func(seed int64, idx int, res *runResult) error {
		return checkServeDirect(genServe(seed, idx), res)
	}
	w.prepare = func(seed int64, traced bool) {
		// Fill the memo of inherited work; an error shows again, and
		// fails, in the run that needs the figure.
		for idx := range w.inputs {
			streamInherited(genServe(seed, idx), traced)
		}
	}
	return w
}

// runServe starts a fresh server on loopback and drives the request stream
// through it from a closed loop of clients. Traced runs force telemetry on
// in every world the server builds (it observes, never changes results).
func runServe(reqs []serveRequest, traced bool) *runResult {
	res := &runResult{m: map[string]float64{}, bodies: map[string][]byte{}}
	if traced {
		core.ForceTelemetry = true
		defer func() { core.ForceTelemetry = false }()
	}
	inherited, forks, err := streamInherited(reqs, traced)
	if err != nil {
		res.ops = len(reqs)
		res.fail("serve: %v", err)
		return res
	}
	var tally worldTally
	defer tally.install()()
	nw := serveWorkers()

	alloc0 := allocatedBytes()
	t0 := time.Now()
	srv := serve.New(serve.Config{Workers: nw, SweepWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: nw}
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	closed := false
	shut := func() {
		if !closed {
			closed = true
			transport.CloseIdleConnections()
			ts.Close()
			srv.Close()
		}
	}
	defer shut()
	if _, _, err := get(client, ts.URL+"/healthz"); err != nil {
		res.ops = len(reqs)
		res.fail("serve: healthz: %v", err)
		return res
	}
	setup := time.Since(t0)

	type answer struct {
		status int
		hit    bool
		body   []byte
		ms     float64
		err    error
	}
	answers := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				resp, err := client.Post(ts.URL+"/run", "application/json", bytes.NewReader(reqs[i].Body))
				a := answer{err: err}
				if err == nil {
					a.body, a.err = io.ReadAll(resp.Body)
					resp.Body.Close()
					a.status = resp.StatusCode
					a.hit = resp.Header.Get("X-Cache") == "hit"
				}
				a.ms = float64(time.Since(start).Nanoseconds()) / 1e6
				answers[i] = a
			}
		}()
	}
	wg.Wait()
	run := time.Since(t0)
	alloc := allocatedBytes() - alloc0

	var stats struct {
		CacheHits  int64 `json:"cache_hits"`
		WarmHits   int64 `json:"warm_hits"`
		WarmMisses int64 `json:"warm_misses"`
		Runs       int64 `json:"runs"`
	}
	if _, body, err := get(client, ts.URL+"/stats"); err != nil {
		res.fail("serve: stats: %v", err)
	} else if err := json.Unmarshal(body, &stats); err != nil {
		res.fail("serve: stats: %v", err)
	}
	if !traced {
		res.m["live_heap_mb"] = liveHeapMB() // cache + warm pool + job table
	}
	// The pool's warmed parents shut down in Close: only then has every
	// world that ran in this request stream reached the tally.
	shut()
	worlds := tally.snapshot()
	worlds.addWork(&inherited, -1)
	if got := stats.WarmHits + stats.WarmMisses; got != int64(forks) {
		res.fail("serve: %d warm-pool forks, want one per distinct poolable spec (%d)", got, forks)
	}

	same := byteCheck{}
	seenPrefix := map[string]bool{}
	res.ops = len(reqs)
	for i, a := range answers {
		q := reqs[i]
		class := latCold
		switch {
		case a.hit:
			class = latHit
		case q.Class == classRepeat:
			class = latCoalesced
		case q.Prefix != "" && seenPrefix[q.Prefix]:
			class = latPooled
		}
		if q.Prefix != "" {
			seenPrefix[q.Prefix] = true
		}
		switch {
		case a.err != nil:
			res.fail("serve: request %d: %v", i, a.err)
			continue
		case a.status != http.StatusOK:
			res.fail("serve: request %d (%s): status %d: %s", i, q.Body, a.status, bytes.TrimSpace(a.body))
			continue
		}
		if err := same.check(string(q.Body), a.body); err != nil {
			res.fail("%v", err)
			continue
		}
		res.requests = append(res.requests, requestSample{Ms: a.ms, Class: class})
	}
	res.bodies = same

	res.m["run_s"] = run.Seconds()
	res.m["setup_s"] = setup.Seconds()
	res.m["host_ns_per_sim_event"] = float64(run.Nanoseconds()) / float64(max(worlds.Events, 1))
	res.m["alloc_mb"] = mb(alloc)
	res.serve = serveTotals{
		Requests: int64(len(reqs)), CacheHits: stats.CacheHits, WarmHits: stats.WarmHits,
		WarmMisses: stats.WarmMisses, Runs: stats.Runs, Wall: run,
	}
	res.digest = bodiesDigest(same)
	if traced {
		res.layers = &worlds
	}
	return res
}

// inheritedMemo caches inheritedWork per warm prefix and tracing mode.
var inheritedMemo = map[string]layerStats{}

// streamInherited sums inheritedWork over the stream's distinct specs (each
// runs once: repeats are answered from the cache or coalesced) and counts
// the distinct poolable specs, each of which forks the warm pool once.
func streamInherited(reqs []serveRequest, traced bool) (layerStats, int, error) {
	var sum layerStats
	forks := 0
	seen := map[string]bool{}
	for _, q := range reqs {
		if seen[string(q.Body)] {
			continue
		}
		seen[string(q.Body)] = true
		if q.Class == classPoolable {
			forks++
		}
		ls, err := inheritedWork(q.Spec, traced)
		if err != nil {
			return layerStats{}, 0, err
		}
		sum.addWork(&ls, 1)
	}
	return sum, forks, nil
}

// inheritedWork is the work a spec's forks inherit rather than run, which
// summing worlds at shutdown would count once more per fork: a fork starts
// with copies of its parent's counters. A poolable spec forks its prefix's
// warmed world, resident in the pool, once. A Fig. 9 spec forks each half's
// warmed world and shuts the parent down; its share is the difference
// between a forked and an unforked run of the same spec over 1 ms, so the
// spec counts the events an unforked run of it dispatches.
// Other specs boot their own worlds. It is deterministic per spec and
// computed once, before the measured time starts (see prepare).
func inheritedWork(spec experiments.Spec, traced bool) (layerStats, error) {
	if spec.Kind != experiments.KindFigure || spec.Figure < 7 || spec.Figure > 9 {
		return layerStats{}, nil
	}
	spec.Measure = 0
	key, err := json.Marshal(spec)
	if err != nil {
		return layerStats{}, err
	}
	memo := fmt.Sprintf("%s traced=%v", key, traced)
	if ls, ok := inheritedMemo[memo]; ok {
		return ls, nil
	}
	var ls layerStats
	if spec.Figure == 9 {
		opt := experiments.DefaultFig9Options()
		opt.Measure, opt.Seed = time.Millisecond, spec.Seed
		var forked, cold worldTally
		uninstall := forked.install()
		_, err = experiments.RunFig9Forked(opt, true)
		uninstall()
		if err == nil {
			uninstall = cold.install()
			_, err = experiments.RunFig9Forked(opt, false)
			uninstall()
		}
		ls = forked.snapshot()
		c := cold.snapshot()
		ls.addWork(&c, -1)
	} else {
		var warm *experiments.PagingWarm
		if warm, err = experiments.WarmPagingSpec(spec); err == nil {
			ls.addSystem(warm.Sys)
			warm.Sys.Shutdown()
		}
	}
	if err != nil {
		return layerStats{}, fmt.Errorf("inherited work of %s: %w", key, err)
	}
	inheritedMemo[memo] = ls
	return ls, nil
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.StatusCode, body, err
}

// bodiesDigest hashes every distinct spec's answer, in spec order.
func bodiesDigest(bodies map[string][]byte) string {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts [][]byte
	for _, k := range keys {
		sum := sha256.Sum256(bodies[k])
		parts = append(parts, []byte(k), sum[:])
	}
	return digestOf(parts...)
}

// checkServeDirect re-runs a sample of the stream's specs directly, one
// poolable and one cold, and requires the served bytes to match
// experiments.EncodeResult(RunSpec(spec)). It also times the encoding.
func checkServeDirect(reqs []serveRequest, res *runResult) error {
	picked := map[string]bool{}
	for _, q := range reqs {
		if q.Class == classRepeat || picked[q.Class] {
			continue
		}
		picked[q.Class] = true
		out, err := experiments.RunSpec(context.Background(), q.Spec, 1)
		if err != nil {
			return fmt.Errorf("serve: direct run of %s: %w", q.Body, err)
		}
		t0 := time.Now()
		want, err := experiments.EncodeResult(out.Result)
		res.m["experiments.encode_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return fmt.Errorf("serve: encode %s: %w", q.Body, err)
		}
		if got := res.bodies[string(q.Body)]; !bytes.Equal(got, want) {
			return fmt.Errorf("serve: answer for %s differs from the direct run (%d vs %d bytes)", q.Body, len(got), len(want))
		}
	}
	return nil
}

// requestMetrics derives latency percentiles, per-class medians, the
// closed-loop rate and the service ratios from a batch's requests.
func requestMetrics(rs []requestSample, t serveTotals) map[string]float64 {
	m := map[string]float64{}
	all := make([]float64, len(rs))
	byClass := map[string][]float64{}
	for i, r := range rs {
		all[i] = r.Ms
		byClass[r.Class] = append(byClass[r.Class], r.Ms)
	}
	put := func(name string, xs []float64, p float64) {
		if v, ok := percentile(xs, p); ok {
			m[name] = v
		} else {
			m[name] = 0
		}
	}
	put("req_p50_ms", all, 50)
	put("req_p90_ms", all, 90)
	put("serve.hit_p50_ms", byClass[latHit], 50)
	put("serve.pooled_p50_ms", byClass[latPooled], 50)
	put("serve.cold_p50_ms", byClass[latCold], 50)
	if t.Wall > 0 {
		m["req_per_s"] = float64(len(rs)) / t.Wall.Seconds()
	}
	if t.Requests > 0 {
		m["serve.cache_hit_ratio"] = float64(t.CacheHits) / float64(t.Requests)
		m["serve.coalesced_ratio"] = float64(t.Requests-t.CacheHits-t.Runs) / float64(t.Requests)
	}
	if w := t.WarmHits + t.WarmMisses; w > 0 {
		m["serve.warm_hit_ratio"] = float64(t.WarmHits) / float64(w)
	}
	return m
}
