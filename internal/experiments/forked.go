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

// This file is the warm+measure experiment protocol, the one harness
// behind Figs. 7–9 whatever observability is on. Each run splits around a
// quiesced instant:
//
//	warm    — boot the machine and run the expensive initialisation
//	          (demand-zero faults, swap population) in threads that EXIT
//	          when done;
//	measure — attach the steady-state workload and run the measured window,
//	          starting the timeline recorder (and, for Figs. 7/8, the
//	          revocation episode) at the measure instant.
//
// Because the warmed world is quiesced, core.System.Fork can checkpoint it.
// Only nemesis-serve forks — its warm-world pool, and Fig. 9 specs — every
// other caller measures the warmed world in place. The equivalence tests
// pin in-place and forked measurement byte-identical.
//
// RunPaging, the legacy in-place harness, stays only for the attribution
// profiles and the A1/A2 ablations: the Fig. 7 golden and the gated
// benchmarks pin its event stream, which differs from warm+measure's.

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
	opt.Telemetry = opt.Telemetry || opt.Timeline
	sys := newPagingSystem(opt)
	w := &PagingWarm{Opts: opt, Sys: sys, Set: &trace.SeriesSet{}}
	var err error
	if w.Pagers, err = admitPagers(sys, opt, w.Set, workload.WarmPager); err != nil {
		return nil, err
	}
	if err := awaitInit(sys, w.Pagers, opt.InitLimit); err != nil {
		return nil, err
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
	if opt.Telemetry {
		w.Sys.StartCrosstalkMonitor(obs.DefaultCrosstalkConfig())
	}
	for _, pg := range w.Pagers {
		pg.Resume()
	}
	return measureWindow(&PagingResult{Opts: opt, Sys: w.Sys, Pagers: w.Pagers, Set: w.Set, Log: w.Sys.USDLog})
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

// RunFig9Forked runs the file-system isolation experiment under the
// warm+measure protocol: the competing pagers initialise before the window,
// the world forks (when forked), and the file-system client is created in
// the measure world — drivers that appear after the fork need no snapshot
// support at all. The CLI and the suite measure in place (forked=false);
// nemesis-serve forks, and its benchmark accounting subtracts each fork's
// inherited warm work, so both modes stay. With Timeline the contended
// world boots with telemetry on and its recorder starts at the measure
// instant, after any fork.
func RunFig9Forked(opt Fig9Options, forked bool) (*Fig9Result, error) {
	res := &Fig9Result{Opts: opt}

	runOnce := func(withPagers bool) (*trace.Series, float64, []float64, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = opt.Seed
		cfg.MemoryFrames = 2048
		cfg.Telemetry = opt.Timeline && withPagers
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
			if err := awaitInit(sys, pagers, 10*time.Minute); err != nil {
				return nil, 0, nil, err
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
		if cfg.Telemetry {
			sys.StartRecorder(opt.Recorder)
			res.ContendedSys = sys
		}

		// FS data lives on the first quarter of the disk; swap files are
		// in the second half (DefaultConfig's partition).
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
