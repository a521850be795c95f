package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestPagingForkEquivalence pins the Fig. 7/8 warm+measure protocol:
// measuring the warmed world in place (the CLI, the suite and unpooled
// figure specs) is byte-identical to measuring a fork of it (nemesis-serve's
// warm pool) — means, measure window and the full USD scheduler trace.
func TestPagingForkEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*PagingOptions)
	}{
		{"fig7", func(*PagingOptions) {}},
		{"fig8", func(o *PagingOptions) { o.Write = true; o.Forgetful = true }},
		{"telemetry+hog", func(o *PagingOptions) { o.Telemetry = true; o.Hog = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultPagingOptions()
			opt.Measure = 2 * time.Second
			// Sample well inside the window so the means are real readings,
			// not the 0 of an empty series.
			opt.SampleEvery = 500 * time.Millisecond
			tc.mut(&opt)
			inPlace, err := RunWarmPaging(opt)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := WarmPaging(opt)
			if err != nil {
				t.Fatal(err)
			}
			world, err := warm.Fork()
			if err != nil {
				t.Fatal(err)
			}
			warm.Sys.Shutdown()
			forked, err := world.Measure(opt.Measure)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range inPlace.MeanMbps {
				if m <= 0 {
					t.Errorf("MeanMbps[%d] = %v, want a positive reading", i, m)
				}
			}
			if !reflect.DeepEqual(inPlace.MeanMbps, forked.MeanMbps) {
				t.Errorf("MeanMbps: in place %v, forked %v", inPlace.MeanMbps, forked.MeanMbps)
			}
			if inPlace.MeasureStart != forked.MeasureStart {
				t.Errorf("MeasureStart: in place %v, forked %v", inPlace.MeasureStart, forked.MeasureStart)
			}
			if !reflect.DeepEqual(inPlace.Log.Events(), forked.Log.Events()) {
				t.Errorf("USD trace differs between in-place and forked runs")
			}
		})
	}
}

// TestFig9ForkEquivalence: the FS client is created after the fork, in the
// measure world — its throughput and the pagers' must not depend on
// whether the pagers' warm world was forked. This pins the CLI and suite
// Fig. 9 (in place) to nemesis-serve's (forked).
func TestFig9ForkEquivalence(t *testing.T) {
	opt := DefaultFig9Options()
	opt.Measure = 2 * time.Second
	opt.SampleEvery = 500 * time.Millisecond
	inPlace, err := RunFig9Forked(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := RunFig9Forked(opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if inPlace.AloneMbps <= 0 || inPlace.ContendedMbps <= 0 {
		t.Errorf("fs means (%v, %v), want positive readings", inPlace.AloneMbps, inPlace.ContendedMbps)
	}
	for i, m := range inPlace.PagerMbps {
		if m <= 0 {
			t.Errorf("PagerMbps[%d] = %v, want a positive reading", i, m)
		}
	}
	if inPlace.AloneMbps != forked.AloneMbps || inPlace.ContendedMbps != forked.ContendedMbps {
		t.Errorf("means: in place (%v, %v), forked (%v, %v)",
			inPlace.AloneMbps, inPlace.ContendedMbps, forked.AloneMbps, forked.ContendedMbps)
	}
	if !reflect.DeepEqual(inPlace.PagerMbps, forked.PagerMbps) {
		t.Errorf("PagerMbps: in place %v, forked %v", inPlace.PagerMbps, forked.PagerMbps)
	}
}

// TestPagingTelemetryObserveOnly: telemetry (spans, metrics, attribution,
// the crosstalk monitor) observes a Fig. 7/8 run without changing it —
// nemesis-paging -metrics and -simprofile print the plain run's means.
func TestPagingTelemetryObserveOnly(t *testing.T) {
	for _, fig8 := range []bool{false, true} {
		var means [][]float64
		for _, telemetry := range []bool{false, true} {
			opt := DefaultPagingOptions()
			opt.Measure = 5 * time.Second
			opt.SampleEvery = time.Second
			opt.Write, opt.Forgetful = fig8, fig8
			opt.Telemetry = telemetry
			r, err := RunWarmPaging(opt)
			if err != nil {
				t.Fatal(err)
			}
			means = append(means, r.MeanMbps)
		}
		if !reflect.DeepEqual(means[0], means[1]) {
			t.Errorf("fig8=%v: means without telemetry %v, with %v", fig8, means[0], means[1])
		}
	}
}
