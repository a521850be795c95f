package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
)

// clusterMachines is fixed so the simulated work never depends on the host;
// the sweep fan-out is capped at the host's processors.
const (
	clusterMachines = 2
	clusterWindow   = 20 * time.Second
)

func clusterWorkload() *workload {
	w := &workload{
		name:   "cluster_remote",
		why:    "mostly idle domains on the indexed atropos/mem paths while hot ones page to swap servers: netswap RPCs, page copies, obs and GC",
		inputs: 6,
	}
	w.describe = func(seed int64, idx int) string {
		return genCluster(seed, idx).String() + " window=" + clusterWindow.String()
	}
	w.run = func(seed int64, idx int, traced bool) *runResult {
		return runCluster(genCluster(seed, idx), traced)
	}
	w.firstCheck = func(seed int64, idx int, res *runResult) error {
		// The live heap of one resident machine after boot, admission and
		// placement: read once per input, in the machine's shutdown hook.
		live, err := clusterLiveHeap(genCluster(seed, idx))
		res.m["live_heap_mb"] = live
		return err
	}
	return w
}

func clusterOptions(in clusterInput, traced bool) experiments.ClusterOptions {
	return experiments.ClusterOptions{
		Machines:          clusterMachines,
		DomainsPerMachine: in.Domains,
		Servers:           2,
		HotFraction:       in.hotFraction(),
		Measure:           clusterWindow,
		Seed:              in.Seed,
		Workers:           min(clusterMachines, runtime.NumCPU()),
		Trace:             traced,
	}
}

// runCluster times the set-up alone (the same cluster over a 1 ms window:
// boot, admission and swap placement) and then the whole run.
func runCluster(in clusterInput, traced bool) *runResult {
	res := &runResult{m: map[string]float64{}, ops: 1}
	ctx := context.Background()
	opt := clusterOptions(in, traced)

	probe := opt
	probe.Measure = time.Millisecond
	probe.Trace = false
	t0 := time.Now()
	if _, err := experiments.RunClusterContext(ctx, probe); err != nil {
		res.fail("cluster setup: %v", err)
		return res
	}
	setup := time.Since(t0)

	var tally worldTally
	if traced {
		defer tally.install()()
	}
	alloc0 := allocatedBytes()
	t1 := time.Now()
	cr, err := experiments.RunClusterContext(ctx, opt)
	run := time.Since(t1)
	if err != nil {
		res.fail("cluster run: %v", err)
		return res
	}
	t2 := time.Now()
	body, err := experiments.EncodeResult(&experiments.Result{
		Spec:    experiments.Spec{Kind: experiments.KindCluster, Machines: opt.Machines, DomainsPerMachine: opt.DomainsPerMachine, Servers: opt.Servers, Measure: experiments.Duration(opt.Measure), Seed: opt.Seed},
		Cluster: cr,
	})
	encode := time.Since(t2)
	alloc := allocatedBytes() - alloc0
	if err != nil {
		res.fail("cluster encode: %v", err)
		return res
	}
	tot := cr.Totals()
	res.m["run_s"] = (run + encode).Seconds()
	res.m["setup_s"] = setup.Seconds()
	res.m["host_ns_per_sim_event"] = float64(run.Nanoseconds()) / float64(max(tot.Events, 1))
	res.m["alloc_mb"] = mb(alloc)
	res.m["experiments.warm_s"] = setup.Seconds()
	res.m["experiments.measure_s"] = run.Seconds()
	res.m["experiments.encode_ms"] = float64(encode.Nanoseconds()) / 1e6
	res.digest = digestOf(body)
	if err := checkCluster(tot); err != nil {
		res.fail("%v", err)
	}
	if traced {
		ls := tally.snapshot()
		ls.RemoteReads, ls.RemoteWrites = tot.RemoteReads, tot.RemoteWrites
		ls.addStoreHops(cr.Trace)
		res.layers = &ls
	}
	return res
}

// clusterLiveHeap boots one machine of the input over a 1 ms window and
// reads the live heap while that machine's world is still resident.
func clusterLiveHeap(in clusterInput) (float64, error) {
	opt := clusterOptions(in, false)
	opt.Machines, opt.Workers, opt.Measure = 1, 1, time.Millisecond
	var live float64
	core.ShutdownHook = func(*core.System) { live = liveHeapMB() }
	defer func() { core.ShutdownHook = nil }()
	if _, err := experiments.RunClusterContext(context.Background(), opt); err != nil {
		return 0, fmt.Errorf("cluster live heap: %w", err)
	}
	return live, nil
}
