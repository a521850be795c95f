// Package experiments contains one harness per table and figure of the
// paper's evaluation (§7), plus the ablations DESIGN.md calls out. Each
// harness builds a fresh simulated machine, runs the paper's workload and
// returns the series/rows the paper plots, so cmd/ tools and benchmarks can
// regenerate every result.
package experiments

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
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
	// Timeline (implies Telemetry) starts the time-series recorder for the
	// measured window and adds a deterministic revocation episode — a hog
	// domain holding optimistic frames is revoked from mid-measure — so the
	// exported timeline always contains revocation-phase audit events. It
	// perturbs the workload, so it is off for golden/figure runs.
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

// RunPaging executes a Fig. 7/8-style experiment.
func RunPaging(opt PagingOptions) (*PagingResult, error) {
	if opt.Timeline {
		opt.Telemetry = true
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MemoryFrames = 2048 // 16 MB: ample, contention is per-contract
	cfg.Telemetry = opt.Telemetry
	sys := core.New(cfg)
	sys.USD.LaxityEnabled = opt.LaxityEnabled
	sys.USD.FCFS = opt.FCFS
	if opt.Telemetry {
		sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	}

	res := &PagingResult{Opts: opt, Sys: sys, Set: &trace.SeriesSet{}, Log: sys.USDLog}
	for i, slice := range opt.Slices {
		name := fmt.Sprintf("app%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
		pc := workload.DefaultPagerConfig(name, slice)
		pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
		pc.VirtBytes = opt.VirtBytes
		pc.PhysFrames = opt.PhysFrames
		pc.SwapBytes = opt.SwapBytes
		pc.Write = opt.Write
		pc.Forgetful = opt.Forgetful
		pc.Policy = opt.Policy
		pc.Writeback = opt.Writeback
		pc.ClusterSize = opt.ClusterSize
		pc.SampleEvery = opt.SampleEvery
		pg, err := workload.StartPager(sys, pc, res.Set.New(name))
		if err != nil {
			return nil, err
		}
		res.Pagers = append(res.Pagers, pg)
	}
	if opt.Hog {
		// 5% of the period: a starved contract, so the hog's demand piles
		// up in its own usd.queue account instead of on the victims.
		slice := opt.Period / 20
		pc := workload.DefaultPagerConfig("hog-5%", slice)
		pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
		pc.VirtBytes = opt.VirtBytes
		pc.PhysFrames = opt.PhysFrames
		pc.SwapBytes = opt.SwapBytes
		pc.Write = opt.Write
		pc.Forgetful = opt.Forgetful
		pc.SampleEvery = opt.SampleEvery
		pg, err := workload.StartPager(sys, pc, res.Set.New("hog-5%"))
		if err != nil {
			return nil, err
		}
		res.Pagers = append(res.Pagers, pg)
	}

	// Initialisation: run until every application reports ready.
	deadline := sys.Sim.Now().Add(opt.InitLimit)
	for {
		ready := true
		for _, pg := range res.Pagers {
			if !pg.Initialised {
				ready = false
			}
		}
		if ready {
			break
		}
		if sys.Sim.Now() >= deadline {
			return nil, fmt.Errorf("experiments: initialisation exceeded %v", opt.InitLimit)
		}
		sys.Run(time.Second)
	}
	res.MeasureStart = sys.Sim.Now().Duration()

	if opt.Timeline {
		sys.StartRecorder(opt.Recorder)
		if err := startRevocationEpisode(sys, opt.Measure/2); err != nil {
			return nil, err
		}
	}

	if opt.Telemetry && opt.SnapshotEvery > 0 && opt.OnSnapshot != nil {
		for remaining := opt.Measure; remaining > 0; {
			step := opt.SnapshotEvery
			if step > remaining {
				step = remaining
			}
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
	// Timeline enables telemetry plus the time-series recorder on the
	// contended run, exposing it as Fig9Result.ContendedSys for export.
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

// RunFig9 executes the experiment with explicit options.
func RunFig9(opt Fig9Options) (*Fig9Result, error) {
	res := &Fig9Result{Opts: opt}

	runOnce := func(withPagers bool) (*trace.Series, float64, []float64, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.MemoryFrames = 2048
		cfg.Telemetry = opt.Timeline && withPagers
		sys := core.New(cfg)
		// FS data lives on the first quarter of the disk; swap files are
		// in the second half (DefaultConfig's partition).
		part := usd.Extent{Start: 0, Count: sys.Disk.Geom.TotalBlocks / 4}
		fcfg := workload.DefaultFSClientConfig("fs", part)
		fcfg.DiskQoS = opt.FSQoS
		fcfg.Depth = opt.Depth
		fcfg.SampleEvery = opt.SampleEvery
		var set trace.SeriesSet
		fc, err := workload.StartFSClient(sys, fcfg, set.New("fs"))
		if err != nil {
			return nil, 0, nil, err
		}
		var pagers []*workload.Pager
		if withPagers {
			for i, slice := range opt.PagerSlices {
				name := fmt.Sprintf("pager%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
				pc := workload.DefaultPagerConfig(name, slice)
				pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
				pc.SampleEvery = opt.SampleEvery
				pg, err := workload.StartPager(sys, pc, set.New(name))
				if err != nil {
					return nil, 0, nil, err
				}
				pagers = append(pagers, pg)
			}
		}
		if opt.Timeline && withPagers {
			sys.StartRecorder(opt.Recorder)
			res.ContendedSys = sys
		}
		sys.Run(opt.Measure)
		fc.Stop()
		var pagerMbps []float64
		for _, pg := range pagers {
			pagerMbps = append(pagerMbps, pg.Series.Mean())
		}
		mean := set.Get("fs").MeanAfter(0)
		sys.Shutdown()
		return set.Get("fs"), mean, pagerMbps, nil
	}

	var err error
	res.AloneSeries, res.AloneMbps, _, err = runOnce(false)
	if err != nil {
		return nil, err
	}
	res.ContendedSeries, res.ContendedMbps, res.PagerMbps, err = runOnce(true)
	if err != nil {
		return nil, err
	}
	return res, nil
}
