package main

import (
	"time"

	"nemesis/internal/experiments"
)

// Measured windows of simulated time for the paper's ladder. Every touch
// faults (4 MB working set on 2 guaranteed frames), so the figures simulate
// a steady paging load; Fig. 8 runs about five times fewer events per
// simulated second, hence its longer window.
var figWindow = map[int]time.Duration{7: 300 * time.Second, 8: 600 * time.Second}

func figureWorkload(fig int) *workload {
	w := &workload{
		name:   "fig7_pagein",
		why:    "every touch pages in from swap: sim event loop and process handoff, stretchdrv, usd/atropos and disk reads; netswap and serve stay idle",
		inputs: 3,
	}
	if fig == 8 {
		w = &workload{
			name:   "fig8_pageout",
			why:    "the same machine paging out (Write+Forgetful): dirty evictions, blok allocation and disk writes, at about a fifth of Fig. 7's events per simulated second",
			inputs: 1, // the paper's configuration alone
		}
	}
	w.describe = func(seed int64, idx int) string {
		return genFigure(seed, fig, figWindow[fig], idx).String()
	}
	w.run = func(seed int64, idx int, traced bool) *runResult {
		return runFigure(fig, genFigure(seed, fig, figWindow[fig], idx), traced)
	}
	return w
}

// runFigure boots and warms the figure's machine, forks the warmed world,
// measures the window on the fork and encodes the result: the path a
// served figure request takes, with the benchmark's own slices.
func runFigure(fig int, in figInput, traced bool) *runResult {
	res := &runResult{m: map[string]float64{}, ops: 1}
	opt := experiments.DefaultPagingOptions()
	opt.Slices = in.Slices
	opt.Seed = in.Seed
	opt.Write, opt.Forgetful = fig == 8, fig == 8
	opt.Telemetry = traced
	window := in.Window

	alloc0 := allocatedBytes()
	start := time.Now()
	warm, err := experiments.WarmPaging(opt)
	if err != nil {
		res.fail("fig %d warm: %v", fig, err)
		return res
	}
	setup := time.Since(start)
	if !traced {
		res.m["live_heap_mb"] = liveHeapMB() // one resident warmed world, untimed
	}
	t0 := time.Now()
	world, err := warm.Fork()
	fork := time.Since(t0)
	warm.Sys.Shutdown()
	if err != nil {
		res.fail("fig %d fork: %v", fig, err)
		return res
	}
	events0 := world.Sys.Sim.Dispatched()
	t1 := time.Now()
	pr, err := world.Measure(window)
	measured := time.Since(t1)
	if err != nil {
		res.fail("fig %d measure: %v", fig, err)
		return res
	}
	events := world.Sys.Sim.Dispatched() - events0
	t2 := time.Now()
	body, err := experiments.EncodeResult(&experiments.Result{
		Spec: experiments.Spec{Kind: experiments.KindFigure, Figure: fig, Measure: experiments.Duration(window), Seed: in.Seed},
		Figure: &experiments.FigureSummary{
			Fig: fig, MeanMbps: pr.MeanMbps, Ratios: pr.Ratios(), MaxLax: pr.Log.MaxLax(),
		},
	})
	encode := time.Since(t2)
	run := setup + time.Since(t0)
	alloc := allocatedBytes() - alloc0
	if err != nil {
		res.fail("fig %d encode: %v", fig, err)
		return res
	}

	res.m["run_s"] = run.Seconds()
	res.m["setup_s"] = setup.Seconds()
	res.m["host_ns_per_sim_event"] = float64(measured.Nanoseconds()) / float64(max(events, 1))
	res.m["alloc_mb"] = mb(alloc)
	res.m["experiments.warm_s"] = setup.Seconds()
	res.m["core.fork_ms"] = float64(fork.Nanoseconds()) / 1e6
	res.m["experiments.measure_s"] = measured.Seconds()
	res.m["experiments.encode_ms"] = float64(encode.Nanoseconds()) / 1e6
	res.m["qos_share_err"] = qosShareErr(in.Slices, pr.MeanMbps)
	res.digest = digestOf(body)
	if err := checkFigure(fig, in.Slices, pr.MeanMbps); err != nil {
		res.fail("%v", err)
	}
	if traced {
		res.layers = &layerStats{}
		res.layers.addSystem(world.Sys)
	}
	return res
}
