// Command perfbench is the repository benchmark: it measures the host cost
// of the simulator (and of the service built on it) end to end and layer by
// layer, on seeded workloads, and checks every output it times.
//
//	perfbench --workload fig7_pagein --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it repeats untraced runs for --seconds and reports the
// end-to-end metrics (medians over the runs). With --trace 1 it splits the
// time between untraced runs, telemetry-enabled runs and CPU-profiled
// telemetry-enabled runs, and reports the per-layer metrics. Human-readable
// tables go first; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"run_s": {"value": 2.1, "unit": "s"}, ...}}
//
// Run it through run.sh, which builds it from the checkout first.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the bounded metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"host_ns_per_sim_event", "ns"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1; a layer a
// workload leaves idle reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.warm_s", "s"},
		{"core.fork_ms", "ms"},
		{"experiments.measure_s", "s"},
		{"experiments.encode_ms", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.warm_hit_ratio", "ratio"},
		{"serve.coalesced_ratio", "ratio"},
		{"serve.hit_p50_ms", "ms"},
		{"serve.pooled_p50_ms", "ms"},
		{"serve.cold_p50_ms", "ms"},
		{"req_p50_ms", "ms"},
		{"req_p90_ms", "ms"},
		{"req_per_s", "1/s"},
		{"qos_share_err", "ratio"},
		{"error_rate", "ratio"},
		{"sim.events", "count"},
		{"vm.tlb_hits", "count"},
		{"vm.tlb_misses", "count"},
		{"stretchdrv.faults", "count"},
		{"stretchdrv.page_ins", "count"},
		{"stretchdrv.page_outs", "count"},
		{"stretchdrv.clean_txns", "count"},
		{"usd.txns", "count"},
		{"usd.lax_ms", "sim_ms"},
		{"disk.reads", "count"},
		{"disk.writes", "count"},
		{"disk.busy_sim_s", "sim_s"},
		{"netswap.remote_reads", "count"},
		{"netswap.remote_writes", "count"},
		{"obs.spans", "count"},
		{"obs.spans_evicted", "count"},
		{"usd.queue_wait_p99_sim_ms", "sim_ms"},
		{"disk.service_p50_sim_ms", "sim_ms"},
		{"domain.fault_p99_sim_ms", "sim_ms"},
		{"netswap.net_out_p99_sim_ms", "sim_ms"},
		{"netswap.remote_store_p50_sim_ms", "sim_ms"},
	}
	for _, m := range hostModules {
		defs = append(defs, metricDef{shareMetric(m), "ratio"})
	}
	return append(defs,
		metricDef{shareMetric(bucketSched), "ratio"},
		metricDef{shareMetric(bucketGC), "ratio"},
		metricDef{shareMetric(bucketOther), "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
	)
}()

// extraMetrics are the workload-specific figures printed in the tables of
// untraced runs beside the end-to-end metrics (and reported per layer).
var extraMetrics = []metricDef{
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"req_per_s", "1/s"},
	{"qos_share_err", "ratio"},
	{"error_rate", "ratio"},
}

// workload is one benchmark workload.
type workload struct {
	name, why string
	// inputs is how many distinct generated inputs a run cycles through.
	inputs int
	// describe renders input idx's generated properties.
	describe func(seed int64, idx int) string
	// run performs one run of input idx; traced runs enable the program's
	// telemetry and collect per-layer counts.
	run func(seed int64, idx int, traced bool) *runResult
	// firstCheck runs once per input, untimed, after its first run: checks
	// too costly for every run.
	firstCheck func(seed int64, idx int, res *runResult) error
	// prepare, if set, runs before the measured time starts: per-input
	// work a run would otherwise do untimed inside the budget.
	prepare func(seed int64, traced bool)
}

// runResult is one run's outcome.
type runResult struct {
	m        map[string]float64 // per-run metrics
	digest   string             // hash of the run's checked outputs
	ops      int                // operations attempted (runs or requests)
	failed   int                // operations that failed
	problems []string
	requests []requestSample   // serve only
	bodies   map[string][]byte // serve only: answer per spec
	layers   *layerStats       // traced runs only
	serve    serveTotals       // serve only
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// batch accumulates the runs of one phase.
type batch struct {
	series    map[string][]float64
	attempted int
	failed    int
	problems  []string
	requests  []requestSample
	serve     serveTotals
	layers    []*layerStats // one per traced run, in run order
	inputs    []int         // input index of each run
}

func newBatch() *batch { return &batch{series: map[string][]float64{}} }

// digests remembers the first output digest of every input so later runs
// of the same input must reproduce it.
type digests map[int]string

var workloads = []*workload{figureWorkload(7), figureWorkload(8), clusterWorkload(), serveWorkload()}

// defaultSeed is the seed whose digests baseline.json records.
const defaultSeed = 1

//go:embed baseline.json
var baselineJSON []byte

// baseline is the recorded reference: per workload, the digest of input 0
// at the default seed, which every run at that seed must reproduce.
type baseline struct {
	Digests map[string]string `json:"digests"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\"")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload inputs are drawn from")
		seconds = flag.Int("seconds", 20, "seconds to measure")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from traced and profiled runs")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(baselineJSON, &base); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: baseline.json:", err)
		os.Exit(2)
	}
	var picked []*workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("fingerprint: nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	out := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range picked {
		r := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, base)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Correct = out.Correct && r.Correct
		for k, v := range r.Metrics {
			if len(picked) > 1 {
				k = w.name + "/" + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload measures one workload for the given time and reports it.
func runWorkload(w *workload, seed int64, budget time.Duration, traced bool, base baseline) report {
	fmt.Printf("== %s (seed %d): %s\n", w.name, seed, w.why)
	for i := range w.inputs {
		fmt.Printf("input %d: %s\n", i, w.describe(seed, i))
	}
	seen := digests{}
	expect := ""
	if seed == defaultSeed {
		expect = base.Digests[w.name]
	}
	defer func() {
		for i := range w.inputs {
			if d, ok := seen[i]; ok {
				fmt.Printf("digest input %d: %s\n", i, d)
			}
		}
	}()
	if w.prepare != nil {
		w.prepare(seed, false)
		if traced {
			w.prepare(seed, true)
		}
	}
	start := time.Now()
	if !traced {
		return plainReport(measure(w, seed, start.Add(budget), 3, false, seen, expect))
	}
	// A third untraced, a sixth traced, half under the profiler.
	sixth := budget / 6
	plain := measure(w, seed, start.Add(2*sixth), 2, false, seen, expect)
	tr := measure(w, seed, start.Add(3*sixth), 2, true, seen, expect)
	prof, stacks := profiled(w, seed, start.Add(budget), seen, expect)
	return traceReport(plain, tr, prof, stacks)
}

// measure repeats runs (cycling through the workload's inputs) until the
// deadline, and at least minRuns times.
func measure(w *workload, seed int64, deadline time.Time, minRuns int, traced bool, seen digests, expect string) *batch {
	b := newBatch()
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		idx := i % w.inputs
		res := w.run(seed, idx, traced)
		if prev, ok := seen[idx]; !ok {
			seen[idx] = res.digest
			if idx == 0 && expect != "" && res.digest != expect {
				res.fail("input 0 digest %s, baseline.json records %s", res.digest, expect)
			}
			if w.firstCheck != nil && res.failed == 0 {
				if err := w.firstCheck(seed, idx, res); err != nil {
					res.fail("%v", err)
				}
			}
		} else if prev != res.digest {
			res.fail("input %d digest %s differs from its first run's %s", idx, res.digest, prev)
		}
		b.add(idx, res)
	}
	return b
}

func (b *batch) add(idx int, r *runResult) {
	b.inputs = append(b.inputs, idx)
	for k, v := range r.m {
		b.series[k] = append(b.series[k], v)
	}
	b.attempted += r.ops
	b.failed += r.failed
	b.problems = append(b.problems, r.problems...)
	b.requests = append(b.requests, r.requests...)
	b.serve.add(r.serve)
	if r.layers != nil {
		b.layers = append(b.layers, r.layers)
	}
}

// profiled runs traced runs under the CPU profiler until the deadline (at
// least one), and returns them with the decoded profile.
func profiled(w *workload, seed int64, deadline time.Time, seen digests, expect string) (*batch, []profStack) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		b := newBatch()
		b.attempted, b.failed = 1, 1
		b.problems = append(b.problems, fmt.Sprintf("cpu profile: %v", err))
		return b, nil
	}
	b := measure(w, seed, deadline, 1, true, seen, expect)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		b.attempted++
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
	return b, stacks
}

// derived computes a batch's metrics: the median of every per-run metric,
// the error rate and, for a served workload, the request latency
// percentiles, rates and service ratios.
func (b *batch) derived() map[string]float64 {
	m := map[string]float64{}
	for k, xs := range b.series {
		m[k] = median(xs)
	}
	m["error_rate"] = 0
	if b.attempted > 0 {
		m["error_rate"] = float64(b.failed) / float64(b.attempted)
	}
	if len(b.requests) > 0 {
		for k, v := range requestMetrics(b.requests, b.serve) {
			m[k] = v
		}
	}
	return m
}

// plainReport renders an untraced batch: the table, then the end-to-end
// metrics.
func plainReport(b *batch) report {
	m := b.derived()
	printTable(b, m, append(append([]metricDef(nil), endToEnd...), extraMetrics...))
	printProblems(b.problems)
	r := report{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return r
}

// traceReport renders the per-layer metrics of a traced invocation: phase
// spans and service figures from the untraced runs, work counts and
// simulated waits from the first traced run (every traced run of the same
// input must have done identical work), host shares from the profile.
func traceReport(plain, traced, prof *batch, stacks []profStack) report {
	m := plain.derived()
	r := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, b := range []*batch{plain, traced, prof} {
		r.Attempted += b.attempted
		r.Failed += b.failed
		printProblems(b.problems)
	}
	// Every traced run of one input must have done the same work.
	all := append(append([]*layerStats(nil), traced.layers...), prof.layers...)
	inputs := append(append([]int(nil), traced.inputs...), prof.inputs...)
	first := map[int]*layerStats{}
	for i, ls := range all {
		if f, ok := first[inputs[i]]; !ok {
			first[inputs[i]] = ls
		} else if !f.sameWork(ls) {
			r.Failed++
			printProblems([]string{fmt.Sprintf("input %d: traced runs did different work", inputs[i])})
		}
	}
	if f := first[0]; f != nil {
		f.metrics(m)
	}
	m["error_rate"] = float64(r.Failed) / float64(max(r.Attempted, 1))
	for k, v := range hostShares(stacks) {
		m[shareMetric(k)] = v
	}
	if base, tr := median(plain.series["run_s"]), median(traced.series["run_s"]); base > 0 {
		m["obs.trace_overhead_pct"] = 100 * (tr/base - 1)
	}
	printTable(plain, m, perLayer)
	var samples int64
	for _, s := range stacks {
		samples += s.Count
	}
	fmt.Printf("profile: %d samples over %d traced runs\n", samples, len(prof.inputs))
	r.Correct = r.Failed == 0
	for _, d := range perLayer {
		r.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return r
}

// printTable prints each metric with its median, spread across runs (the
// interquartile range as a share of the median) and run count; metrics that
// are not per-run medians print their value alone.
func printTable(b *batch, m map[string]float64, defs []metricDef) {
	fmt.Printf("%-34s %14s %-6s %8s %5s\n", "metric", "value", "unit", "spread", "runs")
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		if xs := b.series[d.Name]; len(xs) > 0 {
			fmt.Printf("%-34s %14.6g %-6s %7.1f%% %5d\n", d.Name, v, d.Unit, 100*spread(xs), len(xs))
		} else {
			fmt.Printf("%-34s %14.6g %-6s %8s %5s\n", d.Name, v, d.Unit, "-", "-")
		}
	}
}

func printProblems(ps []string) {
	const show = 10
	sort.Strings(ps)
	for i, p := range ps {
		if i == show {
			fmt.Printf("FAIL: ... and %d more\n", len(ps)-show)
			break
		}
		fmt.Println("FAIL:", p)
	}
}

// digestOf hashes checked output bytes.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Host memory, from the runtime's own counters.

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// liveHeapMB forces a collection and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMetric("/gc/heap/live:bytes")) / 1e6
}

func mb(bytes uint64) float64 { return float64(bytes) / 1e6 }
