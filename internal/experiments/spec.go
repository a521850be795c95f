package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments/sweep"
	"nemesis/internal/obs"
)

// Duration is a time.Duration that marshals as its canonical string form
// ("1.5s") and unmarshals from either a duration string or integer
// nanoseconds — so specs arriving as "1s", "1000ms" or 1000000000 all
// normalize to the same encoded bytes, and therefore the same content hash.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		td, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("experiments: bad duration %q: %w", x, err)
		}
		*d = Duration(td)
		return nil
	case float64:
		*d = Duration(time.Duration(x))
		return nil
	default:
		return fmt.Errorf("experiments: duration must be a string or nanosecond count, got %T", v)
	}
}

// Spec kinds: the experiment families a job can request.
const (
	KindSuite       = "suite"       // the full 19-cell suite
	KindFigure      = "figure"      // one paper figure: 7, 8 or 9
	KindNetswap     = "netswap"     // the E8a latency × loss sweep
	KindCluster     = "cluster"     // the N-machine cluster scenario
	KindAttribution = "attribution" // scaled fig 7/8 with exact attribution
)

// Spec is the serializable description of one experiment job — the unit
// both the CLI JSON exports and nemesis-serve accept. Every run is a
// deterministic pure function of its normalized Spec: the sweep fan-out
// width is deliberately NOT part of the spec (results are byte-identical at
// any worker count), so it is an execution detail of the runner, never of
// the result's identity.
type Spec struct {
	// Kind selects the experiment family: suite, figure, netswap, cluster
	// or attribution.
	Kind string `json:"kind"`
	// Figure is the figure number for the figure (7, 8 or 9) and
	// attribution (7 or 8) kinds.
	Figure int `json:"figure,omitempty"`
	// Measure bounds the simulated measurement window (default per kind).
	Measure Duration `json:"measure,omitempty"`
	// Seed seeds the simulation for the figure, cluster and attribution
	// kinds (default 1). The suite and netswap kinds run at their fixed
	// default seeds.
	Seed int64 `json:"seed,omitempty"`

	// Latencies and Losses span the netswap sweep's cross product
	// (defaults: 200µs/1ms/2ms × 0/0.05).
	Latencies []Duration `json:"latencies,omitempty"`
	Losses    []float64  `json:"losses,omitempty"`

	// Machines, DomainsPerMachine and Servers size the cluster kind
	// (defaults: 4 × 250 over 2).
	Machines          int `json:"machines,omitempty"`
	DomainsPerMachine int `json:"domains_per_machine,omitempty"`
	Servers           int `json:"servers,omitempty"`

	// Hog admits the 5%-slice unbounded-appetite domain (attribution kind).
	Hog bool `json:"hog,omitempty"`

	// Trace additionally captures the run's Perfetto timeline and audit log
	// (figure kind only). It enables the recorder plus the deterministic
	// revocation episode on figs 7/8, so a traced run is a different —
	// separately cached — experiment from an untraced one.
	Trace bool `json:"trace,omitempty"`
}

// Normalize validates the spec and rewrites it into canonical form: every
// applicable default becomes explicit and fields the kind ignores are
// cleared. Two specs describing the same experiment — default-vs-explicit
// values, any duration spelling, any field order on the wire — normalize to
// identical structs, which is what makes results content-addressable.
// A zero or omitted duration or count means the kind's default; a negative
// one is an error naming the field, never silently defaulted.
func (s *Spec) Normalize() error {
	if s.Measure < 0 {
		return fmt.Errorf("experiments: spec field \"measure\" is %v, want a positive duration (omit it for the default)", s.Measure.D())
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"seed", s.Seed},
		{"machines", int64(s.Machines)},
		{"domains_per_machine", int64(s.DomainsPerMachine)},
		{"servers", int64(s.Servers)},
	} {
		if f.v < 0 {
			return fmt.Errorf("experiments: spec field %q is %d, want a positive value (omit it for the default)", f.name, f.v)
		}
	}
	c := Spec{Kind: s.Kind}
	switch s.Kind {
	case KindSuite:
		c.Measure = s.Measure
		if c.Measure <= 0 {
			c.Measure = Duration(15 * time.Second)
		}
	case KindFigure:
		c.Figure = s.Figure
		c.Measure = s.Measure
		c.Seed = s.Seed
		c.Trace = s.Trace
		switch c.Figure {
		case 7, 8:
			if c.Measure <= 0 {
				c.Measure = Duration(DefaultPagingOptions().Measure)
			}
		case 9:
			if c.Measure <= 0 {
				c.Measure = Duration(DefaultFig9Options().Measure)
			}
		default:
			return fmt.Errorf("experiments: figure spec wants figure 7, 8 or 9, got %d", s.Figure)
		}
		if c.Seed == 0 {
			c.Seed = 1
		}
	case KindNetswap:
		c.Latencies = append([]Duration(nil), s.Latencies...)
		if len(c.Latencies) == 0 {
			c.Latencies = []Duration{
				Duration(200 * time.Microsecond),
				Duration(time.Millisecond),
				Duration(2 * time.Millisecond),
			}
		}
		for _, l := range c.Latencies {
			if l <= 0 {
				return fmt.Errorf("experiments: spec field \"latencies\" has %v, want positive durations", l.D())
			}
		}
		c.Losses = append([]float64(nil), s.Losses...)
		if len(c.Losses) == 0 {
			c.Losses = []float64{0, 0.05}
		}
		for _, p := range c.Losses {
			if p < 0 || p >= 1 {
				return fmt.Errorf("experiments: netswap loss %v must be in [0, 1)", p)
			}
		}
		c.Measure = s.Measure
		if c.Measure <= 0 {
			c.Measure = Duration(15 * time.Second)
		}
	case KindCluster:
		opt := ClusterOptions{
			Machines:          s.Machines,
			DomainsPerMachine: s.DomainsPerMachine,
			Servers:           s.Servers,
			Measure:           s.Measure.D(),
			Seed:              s.Seed,
		}
		opt.fillDefaults()
		c.Machines, c.DomainsPerMachine, c.Servers = opt.Machines, opt.DomainsPerMachine, opt.Servers
		c.Measure, c.Seed = Duration(opt.Measure), opt.Seed
		if c.Machines > 64 || c.DomainsPerMachine > 20000 {
			return fmt.Errorf("experiments: cluster spec %d×%d exceeds the service bound (64×20000)",
				c.Machines, c.DomainsPerMachine)
		}
	case KindAttribution:
		c.Figure = s.Figure
		if c.Figure == 0 {
			c.Figure = 8
		}
		if c.Figure != 7 && c.Figure != 8 {
			return fmt.Errorf("experiments: attribution spec wants figure 7 or 8, got %d", s.Figure)
		}
		c.Measure = s.Measure
		if c.Measure <= 0 {
			c.Measure = Duration(DefaultPagingOptions().Measure)
		}
		c.Seed = s.Seed
		if c.Seed == 0 {
			c.Seed = 1
		}
		c.Hog = s.Hog
	case "":
		return fmt.Errorf("experiments: spec is missing a kind (want %s, %s, %s, %s or %s)",
			KindSuite, KindFigure, KindNetswap, KindCluster, KindAttribution)
	default:
		return fmt.Errorf("experiments: unknown spec kind %q", s.Kind)
	}
	if c.Measure > Duration(10*time.Minute) {
		return fmt.Errorf("experiments: measure %v exceeds the 10m service bound", c.Measure.D())
	}
	*s = c
	return nil
}

// FigureSummary is the JSON-serializable outcome of one figure run.
type FigureSummary struct {
	Fig int `json:"fig"`
	// Figs. 7/8: per-application sustained bandwidth and consecutive ratios.
	MeanMbps []float64 `json:"mean_mbps,omitempty"`
	Ratios   []float64 `json:"ratios,omitempty"`
	// MaxLax is the largest single lax charge per client (seconds).
	MaxLax map[string]float64 `json:"max_lax_s,omitempty"`
	// Fig. 9: the FS client's isolation under paging contention.
	AloneMbps     float64 `json:"alone_mbps,omitempty"`
	ContendedMbps float64 `json:"contended_mbps,omitempty"`
	Isolation     float64 `json:"isolation,omitempty"`
}

// AttributionSummary is the JSON-serializable outcome of an attribution run.
type AttributionSummary struct {
	Fig      int                 `json:"fig"`
	Hog      bool                `json:"hog"`
	MeanMbps []float64           `json:"mean_mbps"`
	Profiles []obs.DomainProfile `json:"profiles"`
	// Folded is the folded-stack profile (`domain;state[;hop] us` lines).
	Folded string `json:"folded"`
}

// Result is the JSON-serializable outcome of a Spec run: the normalized
// spec it answers plus exactly one kind-specific payload. Encoded with
// EncodeResult it is a pure function of the spec — byte-identical across
// runs, worker counts, and CLI-vs-server execution — which is what lets
// nemesis-serve content-address results.
type Result struct {
	Spec        Spec                `json:"spec"`
	Suite       []SuiteCell         `json:"suite,omitempty"`
	Figure      *FigureSummary      `json:"figure,omitempty"`
	Netswap     *NetswapSweepResult `json:"netswap,omitempty"`
	Cluster     *ClusterResult      `json:"cluster,omitempty"`
	Attribution *AttributionSummary `json:"attribution,omitempty"`
}

// Outcome bundles a run's Result with its side artifacts: the Perfetto
// trace and audit log captured when the spec asked for them. Artifacts are
// served verbatim by nemesis-serve's /trace and /audit endpoints.
type Outcome struct {
	Result *Result
	// Trace is the Chrome trace-event JSON timeline (figure kind with
	// Trace set), nil otherwise.
	Trace []byte
	// Audit is the audit log as JSON (figure kind with Trace set).
	Audit []byte
}

// EncodeResult renders a Result as the canonical response body: two-space
// indented JSON with a trailing newline. The CLI's -suite-json and
// -cluster-json exports and nemesis-serve's result bodies both go through
// this function, so the same spec yields byte-identical bytes everywhere.
func EncodeResult(r *Result) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunSpec normalizes and executes a spec. workers caps the sweep fan-out
// (0 = NEMESIS_SWEEP_WORKERS or GOMAXPROCS); it affects wall-clock only,
// never the result bytes. Cancellation is observed between cells (a single
// cell's simulation runs to completion), and a sweep.WithProgress callback
// installed on ctx receives per-cell completion events — single-cell kinds
// report 1/1 on completion.
func RunSpec(ctx context.Context, spec Spec, workers int) (*Outcome, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	res := &Result{Spec: spec}
	out := &Outcome{Result: res}
	switch spec.Kind {
	case KindSuite:
		cells, err := RunSuite(ctx, spec.Measure.D(), workers)
		if err != nil {
			return nil, err
		}
		res.Suite = cells

	case KindNetswap:
		lat := make([]time.Duration, len(spec.Latencies))
		for i, l := range spec.Latencies {
			lat[i] = l.D()
		}
		r, err := RunNetswapSweepContext(ctx, lat, spec.Losses, spec.Measure.D())
		if err != nil {
			return nil, err
		}
		res.Netswap = r

	case KindCluster:
		r, err := RunClusterContext(ctx, ClusterOptions{
			Machines:          spec.Machines,
			DomainsPerMachine: spec.DomainsPerMachine,
			Servers:           spec.Servers,
			Measure:           spec.Measure.D(),
			Seed:              spec.Seed,
			Workers:           workers,
		})
		if err != nil {
			return nil, err
		}
		res.Cluster = r

	case KindFigure:
		if err := runSingleCell(ctx, workers, func() error {
			return runFigureSpec(spec, out)
		}); err != nil {
			return nil, err
		}

	case KindAttribution:
		if err := runSingleCell(ctx, workers, func() error {
			r, err := RunAttribution(AttributionOptions{
				Fig:     spec.Figure,
				Hog:     spec.Hog,
				Measure: spec.Measure.D(),
				Seed:    spec.Seed,
			})
			if err != nil {
				return err
			}
			res.Attribution = &AttributionSummary{
				Fig:      spec.Figure,
				Hog:      spec.Hog,
				MeanMbps: r.Paging.MeanMbps,
				Profiles: r.Profiles,
				Folded:   r.Folded,
			}
			return nil
		}); err != nil {
			return nil, err
		}

	default:
		// Normalize admits only the kinds above.
		return nil, fmt.Errorf("experiments: unknown spec kind %q", spec.Kind)
	}
	return out, nil
}

// runSingleCell runs one indivisible experiment through the sweep runner so
// single-cell kinds share the sweep's contract: pre-cancellation is
// observed and progress reports 1/1 on completion.
func runSingleCell(ctx context.Context, workers int, fn func() error) error {
	_, err := sweep.MapWorkersContext(ctx, workers, []int{0}, func(context.Context, int) (struct{}, error) {
		return struct{}{}, fn()
	})
	return err
}

// PagingOptionsFromSpec maps a figure 7/8 spec onto paging options. The
// warm prefix of the resulting world depends on everything here except
// Measure — which is what lets specs differing only in their measured
// window share one warmed world.
func PagingOptionsFromSpec(spec Spec) PagingOptions {
	opt := DefaultPagingOptions()
	opt.Measure = spec.Measure.D()
	opt.Seed = spec.Seed
	if spec.Figure == 8 {
		opt.Write = true
		opt.Forgetful = true
	}
	return opt
}

// WarmPagingSpec warms the Fig. 7/8 world a figure spec describes.
// nemesis-serve's warm-world pool builds its resident entries with this.
func WarmPagingSpec(spec Spec) (*PagingWarm, error) {
	return WarmPaging(PagingOptionsFromSpec(spec))
}

// FigureFromWarm measures a warmed Fig. 7/8 world (freshly warmed, or a
// fresh fork of a pooled one), consuming it, and assembles the same Result a
// figure-kind RunSpec produces — so pooled and unpooled answers for one
// spec are byte-identical.
func FigureFromWarm(world *PagingWarm, spec Spec) (*Result, error) {
	r, err := world.Measure(spec.Measure.D())
	if err != nil {
		return nil, err
	}
	return &Result{Spec: spec, Figure: pagingSummary(spec.Figure, r)}, nil
}

// pagingSummary is the figure summary of a Fig. 7/8 run.
func pagingSummary(fig int, r *PagingResult) *FigureSummary {
	return &FigureSummary{Fig: fig, MeanMbps: r.MeanMbps, Ratios: r.Ratios(), MaxLax: r.Log.MaxLax()}
}

// runFigureSpec executes one figure cell on the warm+measure protocol,
// capturing trace/audit artifacts when the spec asks for them; tracing
// never changes the summary. Figs. 7/8 measure the warmed world in place,
// byte-identical to the fork of it nemesis-serve's warm pool measures;
// Fig. 9 measures on a fork.
func runFigureSpec(spec Spec, out *Outcome) error {
	var sys *core.System
	switch spec.Figure {
	case 7, 8:
		opt := PagingOptionsFromSpec(spec)
		opt.Timeline = spec.Trace
		r, err := RunWarmPaging(opt)
		if err != nil {
			return err
		}
		out.Result.Figure = pagingSummary(spec.Figure, r)
		sys = r.Sys
	case 9:
		opt := DefaultFig9Options()
		opt.Measure = spec.Measure.D()
		opt.Seed = spec.Seed
		opt.Timeline = spec.Trace
		r, err := RunFig9Forked(opt, true)
		if err != nil {
			return err
		}
		out.Result.Figure = &FigureSummary{Fig: 9, AloneMbps: r.AloneMbps, ContendedMbps: r.ContendedMbps, Isolation: r.Isolation()}
		sys = r.ContendedSys
	}
	if !spec.Trace {
		return nil
	}
	return captureArtifacts(out, sys.WriteTimeline, sys.Obs.WriteAuditJSON)
}

func captureArtifacts(out *Outcome, trace, audit func(w io.Writer) error) error {
	var tb, ab bytes.Buffer
	if err := trace(&tb); err != nil {
		return err
	}
	if err := audit(&ab); err != nil {
		return err
	}
	out.Trace = tb.Bytes()
	out.Audit = ab.Bytes()
	return nil
}
