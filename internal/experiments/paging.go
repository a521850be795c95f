// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7), plus the ablations DESIGN.md calls out. Each
// harness builds a fresh simulated machine, runs the paper's workload and
// returns the series/rows the paper plots, so cmd/ tools and benchmarks can
// regenerate every result. Figs. 7–9 run the warm+measure protocol
// (forked.go) whether traced, profiled or plain; this file holds their
// options and results, the builders both paging harnesses share, and the
// legacy RunPaging that attribution and the A1/A2 ablations still use.
package experiments

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
	"nemesis/internal/workload"
)

// PagingOptions parameterises the Fig. 7 / Fig. 8 experiments.
type PagingOptions struct {
	// Slices are the per-application disk slices (paper: 25, 50, 100 ms).
	Slices []time.Duration
	// Period is the common period (paper: 250 ms).
	Period time.Duration
	// Laxity is the l parameter (paper: 10 ms).
	Laxity time.Duration
	// LaxityEnabled=false reproduces the pre-laxity USD (ablation A1).
	LaxityEnabled bool
	// FCFS runs the unscheduled-disk ablation (A2).
	FCFS bool
	// Write + Forgetful select the page-out experiment (Fig. 8).
	Write, Forgetful bool
	// Policy, Writeback and ClusterSize parameterise the applications'
	// pager engines (zero values: FIFO, demand — or forgetful when
	// Forgetful is set — and no write clustering).
	Policy      stretchdrv.PolicyKind
	Writeback   stretchdrv.WritebackKind
	ClusterSize int
	// VirtBytes, PhysFrames, SwapBytes size each application
	// (paper: 4 MB, 2 frames, 16 MB).
	VirtBytes  uint64
	PhysFrames int
	SwapBytes  int64
	// InitLimit bounds the initialisation phase; Measure is the measured
	// window after every application has initialised.
	InitLimit time.Duration
	Measure   time.Duration
	// SampleEvery is the watch-thread period (paper: 5 s).
	SampleEvery time.Duration
	Seed        int64
	// Telemetry enables the observability registry (fault spans, metric
	// series) and starts the QoS-crosstalk monitor on the system.
	Telemetry bool
	// Hog admits a fourth application with a small (5%) disk slice but an
	// unbounded paging appetite. Under Atropos the contention it creates
	// must land in its own attribution account while the contracted
	// applications' breakdowns stay flat — the attribution experiments
	// assert exactly that. Off for all figure/golden runs.
	Hog bool
	// Timeline (implies Telemetry) starts the time-series recorder at the
	// measure instant and adds a deterministic revocation episode — a hog
	// domain holding optimistic frames is revoked from mid-measure — so the
	// exported timeline always contains revocation-phase audit events. The
	// episode perturbs the workload, so it is off for golden/figure runs.
	Timeline bool
	// Recorder overrides the recorder defaults when Timeline is set.
	Recorder obs.RecorderConfig
	// SnapshotEvery, with Telemetry, invokes OnSnapshot at this period of
	// simulated time during the measured window — nemesis-top uses it to
	// render periodic per-domain tables.
	SnapshotEvery time.Duration
	OnSnapshot    func(sys *core.System)
}

// DefaultPagingOptions returns the paper's parameters for Fig. 7.
func DefaultPagingOptions() PagingOptions {
	return PagingOptions{
		Slices:        []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond},
		Period:        250 * time.Millisecond,
		Laxity:        10 * time.Millisecond,
		LaxityEnabled: true,
		VirtBytes:     4 << 20,
		PhysFrames:    2,
		SwapBytes:     16 << 20,
		InitLimit:     10 * time.Minute,
		Measure:       40 * time.Second,
		SampleEvery:   5 * time.Second,
		Seed:          1,
	}
}

// PagingResult is the outcome of a Fig. 7/8-style run.
type PagingResult struct {
	Opts   PagingOptions
	Sys    *core.System
	Pagers []*workload.Pager
	// Set holds one bandwidth series per application (Mbit/s, the top
	// half of the figure).
	Set *trace.SeriesSet
	// Log is the USD scheduler trace (the bottom half of the figure).
	Log *trace.Log
	// MeanMbps is each application's mean sustained bandwidth over the
	// measured window, in slice order.
	MeanMbps []float64
	// MeasureStart marks where the measured window began.
	MeasureStart time.Duration
}

// Ratios returns consecutive bandwidth ratios (app[i+1]/app[i]); for the
// paper's 10/20/40% contracts both should be ~2.
func (r *PagingResult) Ratios() []float64 {
	var out []float64
	for i := 1; i < len(r.MeanMbps); i++ {
		if r.MeanMbps[i-1] == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, r.MeanMbps[i]/r.MeanMbps[i-1])
	}
	return out
}

// RunPaging executes a Fig. 7/8-style experiment on the legacy harness:
// each application's thread initialises and rolls straight into its
// steady-state loop, so the world never quiesces and cannot fork. Only the
// attribution profiles and the A1/A2 ablations run it; the figures use
// RunWarmPaging.
func RunPaging(opt PagingOptions) (*PagingResult, error) {
	opt.Telemetry = opt.Telemetry || opt.Timeline
	sys := newPagingSystem(opt)
	if opt.Telemetry {
		sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	}
	res := &PagingResult{Opts: opt, Sys: sys, Set: &trace.SeriesSet{}, Log: sys.USDLog}
	var err error
	if res.Pagers, err = admitPagers(sys, opt, res.Set, workload.StartPager); err != nil {
		return nil, err
	}
	if err := awaitInit(sys, res.Pagers, opt.InitLimit); err != nil {
		return nil, err
	}
	return measureWindow(res)
}

// newPagingSystem boots the Fig. 7/8 machine.
func newPagingSystem(opt PagingOptions) *core.System {
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MemoryFrames = 2048 // 16 MB: ample, contention is per-contract
	cfg.Telemetry = opt.Telemetry
	sys := core.New(cfg)
	sys.USD.LaxityEnabled = opt.LaxityEnabled
	sys.USD.FCFS = opt.FCFS
	return sys
}

// admitPagers admits the contracted applications, then the hog when
// opt.Hog is set, each through start (StartPager or WarmPager) with its
// bandwidth series in set.
func admitPagers(sys *core.System, opt PagingOptions, set *trace.SeriesSet,
	start func(*core.System, workload.PagerConfig, *trace.Series) (*workload.Pager, error)) ([]*workload.Pager, error) {
	var pagers []*workload.Pager
	add := func(name string, slice time.Duration, app bool) error {
		pc := workload.DefaultPagerConfig(name, slice)
		pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
		pc.VirtBytes = opt.VirtBytes
		pc.PhysFrames = opt.PhysFrames
		pc.SwapBytes = opt.SwapBytes
		pc.Write = opt.Write
		pc.Forgetful = opt.Forgetful
		pc.SampleEvery = opt.SampleEvery
		if app {
			pc.Policy = opt.Policy
			pc.Writeback = opt.Writeback
			pc.ClusterSize = opt.ClusterSize
		}
		pg, err := start(sys, pc, set.New(name))
		if err != nil {
			return err
		}
		pagers = append(pagers, pg)
		return nil
	}
	for i, slice := range opt.Slices {
		name := fmt.Sprintf("app%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
		if err := add(name, slice, true); err != nil {
			return nil, err
		}
	}
	if opt.Hog {
		// 5% of the period: a starved contract, so the hog's demand piles
		// up in its own usd.queue account instead of on the victims.
		if err := add("hog-5%", opt.Period/20, false); err != nil {
			return nil, err
		}
	}
	return pagers, nil
}

// awaitInit runs the world in one-second steps until every pager reports
// ready, failing once limit of simulated time has passed.
func awaitInit(sys *core.System, pagers []*workload.Pager, limit time.Duration) error {
	deadline := sys.Sim.Now().Add(limit)
	for {
		ready := true
		for _, pg := range pagers {
			if !pg.Initialised {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if sys.Sim.Now() >= deadline {
			return fmt.Errorf("experiments: initialisation exceeded %v", limit)
		}
		sys.Run(time.Second)
	}
}

// measureWindow runs the measured window on a world whose steady-state
// threads are attached, then shuts it down. With Timeline the recorder and
// the revocation episode start at the measure instant; with Telemetry and
// SnapshotEvery, OnSnapshot fires at that period.
func measureWindow(res *PagingResult) (*PagingResult, error) {
	opt, sys := res.Opts, res.Sys
	res.MeasureStart = sys.Sim.Now().Duration()
	if opt.Timeline {
		sys.StartRecorder(opt.Recorder)
		if err := startRevocationEpisode(sys, opt.Measure/2); err != nil {
			return nil, err
		}
	}
	if opt.Telemetry && opt.SnapshotEvery > 0 && opt.OnSnapshot != nil {
		for remaining := opt.Measure; remaining > 0; {
			step := min(opt.SnapshotEvery, remaining)
			sys.Run(step)
			remaining -= step
			opt.OnSnapshot(sys)
		}
	} else {
		sys.Run(opt.Measure)
	}
	start := sys.Sim.Now().Add(-opt.Measure)
	for _, pg := range res.Pagers {
		res.MeanMbps = append(res.MeanMbps, pg.Series.MeanAfter(start))
	}
	sys.Shutdown()
	return res, nil
}

// Fig9Options parameterises the file-system isolation experiment.
type Fig9Options struct {
	// FSQoS is the file-system client's contract (paper: 125/250 ms).
	FSQoS atropos.QoS
	// PagerSlices are the competing pagers' slices (paper: 10% and 20%).
	PagerSlices []time.Duration
	Period      time.Duration
	Laxity      time.Duration
	Depth       int
	Measure     time.Duration
	SampleEvery time.Duration
	Seed        int64
	// Timeline boots the contended world with telemetry on and starts its
	// time-series recorder at the measure instant, exposing the world as
	// Fig9Result.ContendedSys for export. It changes no result.
	Timeline bool
	// Recorder overrides the recorder defaults when Timeline is set.
	Recorder obs.RecorderConfig
}

// DefaultFig9Options returns the paper's parameters.
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		FSQoS:       atropos.QoS{P: 250 * time.Millisecond, S: 125 * time.Millisecond, X: false, L: 10 * time.Millisecond},
		PagerSlices: []time.Duration{25 * time.Millisecond, 50 * time.Millisecond},
		Period:      250 * time.Millisecond,
		Laxity:      10 * time.Millisecond,
		Depth:       8,
		Measure:     30 * time.Second,
		SampleEvery: 5 * time.Second,
		Seed:        1,
	}
}

// Fig9Result holds the isolation experiment's outcome.
type Fig9Result struct {
	Opts Fig9Options
	// AloneMbps is the FS client's sustained bandwidth with no other
	// disk activity; ContendedMbps with two heavily paging applications.
	AloneMbps, ContendedMbps float64
	// AloneSeries/ContendedSeries are the plotted series.
	AloneSeries, ContendedSeries *trace.Series
	// PagerMbps is the pagers' bandwidth in the contended run.
	PagerMbps []float64
	// ContendedSys is the contended run's system when Fig9Options.Timeline
	// is set (for timeline export), nil otherwise.
	ContendedSys *core.System
}

// Isolation returns the contended/alone throughput ratio (1.0 = perfect).
func (r *Fig9Result) Isolation() float64 {
	if r.AloneMbps == 0 {
		return 0
	}
	return r.ContendedMbps / r.AloneMbps
}
