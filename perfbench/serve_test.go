package main

import (
	"encoding/json"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
)

func request(t *testing.T, spec experiments.Spec, class, prefix string) serveRequest {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return serveRequest{Spec: spec, Class: class, Prefix: prefix, Body: b}
}

// TestServeCountsOnlyEventsRun checks that a served stream's event count is
// the events its worlds actually dispatched: the pool's warm prefix once,
// each fork's own window, and a Fig. 9 run's events as an unforked run
// dispatches them, with nothing for a repeat.
func TestServeCountsOnlyEventsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	dur := func(d time.Duration) experiments.Duration { return experiments.Duration(d) }
	fig7 := func(w time.Duration) experiments.Spec {
		return experiments.Spec{Kind: experiments.KindFigure, Figure: 7, Measure: dur(w), Seed: 5}
	}
	fig9 := experiments.Spec{Kind: experiments.KindFigure, Figure: 9, Measure: dur(time.Second), Seed: 6}
	reqs := []serveRequest{
		request(t, fig7(time.Second), classPoolable, "p0"),
		request(t, fig7(2*time.Second), classPoolable, "p0"),
		request(t, fig9, classCold, ""),
	}
	reqs = append(reqs, reqs[0])
	reqs[3].Class = classRepeat

	warm, err := experiments.WarmPagingSpec(fig7(0))
	if err != nil {
		t.Fatal(err)
	}
	want := warm.Sys.Sim.Dispatched()
	for _, w := range []time.Duration{time.Second, 2 * time.Second} {
		world, err := warm.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := world.Measure(w); err != nil {
			t.Fatal(err)
		}
		want += world.Sys.Sim.Dispatched() - warm.Sys.Sim.Dispatched()
	}
	warm.Sys.Shutdown()
	var fig9Events int64
	core.ShutdownHook = func(sys *core.System) { fig9Events += sys.Sim.Dispatched() }
	opt := experiments.DefaultFig9Options()
	opt.Measure, opt.Seed = time.Second, fig9.Seed
	_, err = experiments.RunFig9Forked(opt, false)
	core.ShutdownHook = nil
	if err != nil {
		t.Fatal(err)
	}
	want += fig9Events

	res := runServe(reqs, true)
	if res.failed > 0 {
		t.Fatalf("serve run failed: %v", res.problems)
	}
	if got := res.layers.Events; got != want {
		t.Errorf("served stream counted %d events, want %d", got, want)
	}
}

// TestUSDQueueWaitCoversPaging checks that the USD queue-wait histogram
// observes every transaction of the paging path.
func TestUSDQueueWaitCoversPaging(t *testing.T) {
	opt := experiments.DefaultPagingOptions()
	opt.Telemetry = true
	warm, err := experiments.WarmPaging(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Sys.Shutdown()
	if _, err := warm.Measure(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	var ls layerStats
	ls.addSystem(warm.Sys)
	if ls.USDTxns == 0 || ls.QueueWait.Count != ls.USDTxns {
		t.Errorf("queue-wait histogram holds %d samples for %d USD transactions", ls.QueueWait.Count, ls.USDTxns)
	}
}
