package experiments

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/obs"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
	"nemesis/internal/workload"
)

// This file is the warm+measure experiment protocol. Each harness here
// splits its legacy counterpart into two halves around a quiesced instant:
//
//	warm    — boot the machine and run the expensive initialisation
//	          (demand-zero faults, swap population) in threads that EXIT
//	          when done;
//	measure — attach the steady-state workload and run the measured window.
//
// Because the warmed world is quiesced, core.System.Fork can checkpoint it.
// Only nemesis-serve's warm-world pool reuses one warm world for many
// measurements, so only it forks (plus Fig. 9's forked mode, kept for the
// serve path); every other caller measures the warmed world in place. The
// equivalence tests pin in-place and forked measurement byte-identical.
//
// The legacy entry points (RunPaging, RunFig9) stay: timelines, attribution
// profiles and the ablations use them, and the Fig. 7 golden and the gated
// benchmarks pin their event stream, which differs from warm+measure's.

// PagingWarm is a warmed Fig. 7/8-style world: applications admitted and
// initialised by threads that have exited, leaving the world quiesced and
// forkable. Fork it per measurement, or Measure it directly (consuming it).
type PagingWarm struct {
	Opts   PagingOptions
	Sys    *core.System
	Pagers []*workload.Pager
	Set    *trace.SeriesSet
}

// WarmPaging boots the Fig. 7/8 machine and runs only the initialisation
// phase. The returned world is quiesced: every application has faulted its
// working set in (and, for the paging-out variants, populated swap), and
// the init threads have exited.
func WarmPaging(opt PagingOptions) (*PagingWarm, error) {
	if opt.Timeline || opt.SnapshotEvery > 0 {
		return nil, fmt.Errorf("experiments: timeline/snapshot options are not supported by the warm+measure protocol")
	}
	cfg := core.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MemoryFrames = 2048 // 16 MB: ample, contention is per-contract
	cfg.Telemetry = opt.Telemetry
	sys := core.New(cfg)
	sys.USD.LaxityEnabled = opt.LaxityEnabled
	sys.USD.FCFS = opt.FCFS

	w := &PagingWarm{Opts: opt, Sys: sys, Set: &trace.SeriesSet{}}
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
		pg, err := workload.WarmPager(sys, pc, w.Set.New(name))
		if err != nil {
			return err
		}
		w.Pagers = append(w.Pagers, pg)
		return nil
	}
	for i, slice := range opt.Slices {
		name := fmt.Sprintf("app%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
		if err := add(name, slice, true); err != nil {
			return nil, err
		}
	}
	if opt.Hog {
		if err := add("hog-5%", opt.Period/20, false); err != nil {
			return nil, err
		}
	}

	deadline := sys.Sim.Now().Add(opt.InitLimit)
	for {
		ready := true
		for _, pg := range w.Pagers {
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
	return w, nil
}

// Fork checkpoints the warmed world and returns an independent copy with
// its own series set, ready to Measure. The parent stays warm and can be
// forked again (forks of one parent must be taken serially; measuring the
// forks may proceed in parallel).
func (w *PagingWarm) Fork() (*PagingWarm, error) {
	snap, err := w.Sys.Fork()
	if err != nil {
		return nil, err
	}
	nw := &PagingWarm{Opts: w.Opts, Sys: snap.Sys, Set: &trace.SeriesSet{}}
	for _, pg := range w.Pagers {
		np, err := pg.Remap(snap)
		if err != nil {
			return nil, err
		}
		np.Series = nw.Set.New(np.Cfg.Name)
		nw.Pagers = append(nw.Pagers, np)
	}
	return nw, nil
}

// Measure attaches the steady-state threads (and, with Telemetry, the
// crosstalk monitor) to a warmed world and runs the measured window. It
// consumes the world: the system is shut down before Measure returns.
func (w *PagingWarm) Measure(measure time.Duration) (*PagingResult, error) {
	opt := w.Opts
	opt.Measure = measure
	sys := w.Sys
	if opt.Telemetry {
		sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	}
	res := &PagingResult{Opts: opt, Sys: sys, Pagers: w.Pagers, Set: w.Set, Log: sys.USDLog}
	res.MeasureStart = sys.Sim.Now().Duration()
	for _, pg := range w.Pagers {
		pg.Resume()
	}
	sys.Run(opt.Measure)
	start := sys.Sim.Now().Add(-opt.Measure)
	for _, pg := range w.Pagers {
		res.MeanMbps = append(res.MeanMbps, pg.Series.MeanAfter(start))
	}
	sys.Shutdown()
	return res, nil
}

// RunWarmPaging is RunPaging under the warm+measure protocol: the warmed
// world itself continues into the measured window.
func RunWarmPaging(opt PagingOptions) (*PagingResult, error) {
	warm, err := WarmPaging(opt)
	if err != nil {
		return nil, err
	}
	return warm.Measure(opt.Measure)
}

// RunFig9Forked is RunFig9 under the warm+measure protocol: the competing
// pagers initialise before the window, the world forks (when forked), and
// the file-system client is created in the measure world — drivers that
// appear after the fork need no snapshot support at all. The CLI and the
// suite measure in place (forked=false); nemesis-serve forks, and its
// benchmark accounting subtracts each fork's inherited warm work, so both
// modes stay.
func RunFig9Forked(opt Fig9Options, forked bool) (*Fig9Result, error) {
	if opt.Timeline {
		return nil, fmt.Errorf("experiments: timeline is not supported by the warm+measure protocol")
	}
	res := &Fig9Result{Opts: opt}

	runOnce := func(withPagers bool) (*trace.Series, float64, []float64, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.MemoryFrames = 2048
		sys := core.New(cfg)
		var set trace.SeriesSet
		var pagers []*workload.Pager
		if withPagers {
			for i, slice := range opt.PagerSlices {
				name := fmt.Sprintf("pager%d-%d%%", i+1, int(100*float64(slice)/float64(opt.Period)))
				pc := workload.DefaultPagerConfig(name, slice)
				pc.DiskQoS = atropos.QoS{P: opt.Period, S: slice, X: false, L: opt.Laxity}
				pc.SampleEvery = opt.SampleEvery
				pg, err := workload.WarmPager(sys, pc, set.New(name))
				if err != nil {
					return nil, 0, nil, err
				}
				pagers = append(pagers, pg)
			}
			deadline := sys.Sim.Now().Add(10 * time.Minute)
			for {
				ready := true
				for _, pg := range pagers {
					if !pg.Initialised {
						ready = false
					}
				}
				if ready {
					break
				}
				if sys.Sim.Now() >= deadline {
					return nil, 0, nil, fmt.Errorf("experiments: fig9 pager initialisation stalled")
				}
				sys.Run(time.Second)
			}
		}
		if forked {
			snap, err := sys.Fork()
			if err != nil {
				return nil, 0, nil, err
			}
			remapped := make([]*workload.Pager, len(pagers))
			for i, pg := range pagers {
				if remapped[i], err = pg.Remap(snap); err != nil {
					return nil, 0, nil, err
				}
			}
			sys.Shutdown()
			sys = snap.Sys
			pagers = remapped
		}

		part := usd.Extent{Start: 0, Count: sys.Disk.Geom.TotalBlocks / 4}
		fcfg := workload.DefaultFSClientConfig("fs", part)
		fcfg.DiskQoS = opt.FSQoS
		fcfg.Depth = opt.Depth
		fcfg.SampleEvery = opt.SampleEvery
		fc, err := workload.StartFSClient(sys, fcfg, set.New("fs"))
		if err != nil {
			return nil, 0, nil, err
		}
		for _, pg := range pagers {
			pg.Resume()
		}
		measureStart := sys.Sim.Now()
		sys.Run(opt.Measure)
		fc.Stop()
		var pagerMbps []float64
		for _, pg := range pagers {
			pagerMbps = append(pagerMbps, pg.Series.MeanAfter(measureStart))
		}
		mean := set.Get("fs").MeanAfter(measureStart)
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
