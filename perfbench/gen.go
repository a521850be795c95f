package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nemesis/internal/experiments"
)

// The program's own seeds are inert for these runs (a figure or a cluster
// machine prints the same rows at any seed), so every input property that
// varies between runs is drawn here from the benchmark's --seed. Each
// invocation cycles through a few distinct inputs, input i drawn from
// (seed, workload, i), so a run's medians average over several draws while
// every input still runs more than once and its outputs can be compared.

// inputRand returns the random stream for input idx of a workload.
func inputRand(seed int64, workload string, idx int) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx+1)*0xbf58476d1ce4e5b9
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// figInput is one Fig. 7/8 machine: three applications (the paper's count)
// with disk slices in the paper's doubling ladder (25/50/100 ms).
type figInput struct {
	// Slices are in admission order.
	Slices []time.Duration
	Window time.Duration
	Seed   int64
}

// paperSlices is the paper's ladder of disk slices.
var paperSlices = []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}

// genFigure draws a Fig. 7 input: a doubling ladder on a seeded base slice
// (18-32 ms), admitted in a seeded order, measured for a window scaled so
// every input simulates as much paging as the paper's ladder does over
// paperWindow (the slices' sum times the window is constant). Fig. 8 keeps the paper's ladder and order: its bandwidth
// ratios leave the figure's tolerance at nearby ladders and orders (see
// the benchmark README), so only the paper's configuration is checked.
func genFigure(seed int64, fig int, paperWindow time.Duration, idx int) figInput {
	r := inputRand(seed, fmt.Sprintf("fig%d", fig), idx)
	in := figInput{Seed: 1 + r.Int63n(1<<30), Window: paperWindow}
	if fig != 7 {
		in.Slices = append(in.Slices, paperSlices...)
		return in
	}
	base := time.Duration(18000+r.Intn(14001)) * time.Microsecond
	ladder := []time.Duration{base, 2 * base, 4 * base}
	for _, i := range r.Perm(len(ladder)) {
		in.Slices = append(in.Slices, ladder[i])
	}
	scale := float64(175*time.Millisecond) / float64(7*base)
	in.Window = time.Duration(float64(paperWindow) * scale).Round(time.Second)
	return in
}

func (in figInput) String() string {
	ms := make([]string, len(in.Slices))
	for i, s := range in.Slices {
		ms[i] = fmt.Sprintf("%.3f", float64(s)/1e6)
	}
	return fmt.Sprintf("apps=%d slices_ms=[%s] window=%v program_seed=%d", len(in.Slices), strings.Join(ms, " "), in.Window, in.Seed)
}

// clusterInput is one cluster run: two machines whose domain population and
// hot share are drawn, keeping the hot count (which sets the paging work)
// in a narrow band while the idle population varies.
type clusterInput struct {
	Domains int
	Hot     int
	Seed    int64
}

func genCluster(seed int64, idx int) clusterInput {
	r := inputRand(seed, "cluster_remote", idx)
	return clusterInput{
		Domains: 240 + r.Intn(21),
		Hot:     24 + r.Intn(3),
		Seed:    1 + r.Int63n(1<<30),
	}
}

// hotFraction is the ClusterOptions share that yields exactly Hot hot
// domains (the option is floored against the population).
func (in clusterInput) hotFraction() float64 {
	return (float64(in.Hot) + 0.5) / float64(in.Domains)
}

func (in clusterInput) String() string {
	return fmt.Sprintf("machines=2 domains_per_machine=%d hot_per_machine=%d hot_fraction=%.4f program_seed=%d",
		in.Domains, in.Hot, float64(in.Hot)/float64(in.Domains), in.Seed)
}

// Request classes a serve stream is built from.
const (
	classPoolable = "poolable" // fig 7/8: forks a resident warm world
	classCold     = "cold"     // fig 9, attribution, cluster: boots its own
	classRepeat   = "repeat"   // an exact repeat of an earlier request
)

// serveRequest is one POST /run of the stream.
type serveRequest struct {
	Spec  experiments.Spec
	Class string
	// Prefix names the warm prefix a poolable spec shares ("" otherwise).
	Prefix string
	// Body is the request body; it also identifies the spec in a stream.
	Body []byte
}

// The stream's composition is fixed, so every input costs the same; the
// seed draws the spec seeds (distinct cache and pool keys), which window
// goes with which prefix, the order and which earlier requests are
// repeated. The shares (60% poolable, 20% cold, 20% repeats) are synthetic:
// no recorded usage backs them, and they set the pool and cache hit ratios.
var (
	// Two fig 7 and two fig 8 warm prefixes, each asked for six distinct
	// measured windows: the first warms the pool, the other five fork it.
	serveFig7Windows = []time.Duration{6e9, 8e9, 10e9, 12e9, 14e9, 16e9}
	serveFig8Windows = []time.Duration{10e9, 20e9, 30e9, 40e9, 50e9, 60e9}
	serveRepeats     = 8
)

func genServe(seed int64, idx int) []serveRequest {
	r := inputRand(seed, "serve_mixed", idx)
	used := map[int64]bool{}
	specSeed := func() int64 {
		for {
			s := 2 + r.Int63n(1<<30)
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	dur := func(d time.Duration) experiments.Duration { return experiments.Duration(d) }

	var reqs []serveRequest
	for p, fig := range []int{7, 7, 8, 8} {
		s := specSeed()
		windows := serveFig7Windows
		if fig == 8 {
			windows = serveFig8Windows
		}
		for _, i := range r.Perm(len(windows)) {
			reqs = append(reqs, serveRequest{
				Spec:   experiments.Spec{Kind: experiments.KindFigure, Figure: fig, Measure: dur(windows[i]), Seed: s},
				Class:  classPoolable,
				Prefix: fmt.Sprintf("p%d", p),
			})
		}
	}
	cold := []experiments.Spec{
		{Kind: experiments.KindFigure, Figure: 9, Measure: dur(10e9), Seed: specSeed()},
		{Kind: experiments.KindFigure, Figure: 9, Measure: dur(15e9), Seed: specSeed()},
		{Kind: experiments.KindFigure, Figure: 9, Measure: dur(20e9), Seed: specSeed()},
		{Kind: experiments.KindAttribution, Figure: 7, Measure: dur(10e9), Seed: specSeed()},
		{Kind: experiments.KindAttribution, Figure: 8, Measure: dur(10e9), Seed: specSeed()},
		{Kind: experiments.KindAttribution, Figure: 8, Measure: dur(15e9), Seed: specSeed(), Hog: true},
		{Kind: experiments.KindCluster, Machines: 2, DomainsPerMachine: 50, Servers: 2, Measure: dur(2e9), Seed: specSeed()},
		{Kind: experiments.KindCluster, Machines: 2, DomainsPerMachine: 50, Servers: 2, Measure: dur(3e9), Seed: specSeed()},
	}
	for _, s := range cold {
		reqs = append(reqs, serveRequest{Spec: s, Class: classCold})
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

	// Each repeat goes at least two places after the request it copies.
	for range serveRepeats {
		pos := 2 + r.Intn(len(reqs)-1)
		src := reqs[r.Intn(pos-1)]
		src.Class = classRepeat
		reqs = append(reqs[:pos], append([]serveRequest{src}, reqs[pos:]...)...)
	}
	for i := range reqs {
		b, err := json.Marshal(reqs[i].Spec)
		if err != nil {
			panic(err) // a Spec always marshals
		}
		reqs[i].Body = b
	}
	return reqs
}

// serveShares summarises a stream's composition for the run's record.
func serveShares(reqs []serveRequest) string {
	counts := map[string]int{}
	prefixUse := map[string]int{}
	for _, q := range reqs {
		counts[q.Class]++
		if q.Prefix != "" {
			prefixUse[q.Prefix]++
		}
	}
	shared := 0
	for _, q := range reqs {
		if q.Prefix != "" && prefixUse[q.Prefix] > 1 {
			shared++
		}
	}
	n := float64(len(reqs))
	return fmt.Sprintf("requests=%d poolable=%.3f cold=%.3f exact_repeat=%.3f warm_prefix_shared=%.3f prefixes=%d",
		len(reqs), float64(counts[classPoolable])/n, float64(counts[classCold])/n,
		float64(counts[classRepeat])/n, float64(shared)/n, len(prefixUse))
}
