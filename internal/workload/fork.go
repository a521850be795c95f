package workload

import (
	"fmt"

	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
)

// WarmPager is StartPager's forkable counterpart: it creates the same
// domain, stretch and driver, and runs the same initialisation passes
// (demand-zero read, dirtying write) — but in a thread that EXITS when the
// warm-up completes instead of rolling straight into the steady-state loop.
// Once every warm thread has finished the world is quiesced and can be
// checkpointed with core.System.Fork; Resume attaches the steady-state
// threads afterwards, on the warmed world itself or on any fork of it.
func WarmPager(sys *core.System, cfg PagerConfig, series *trace.Series) (*Pager, error) {
	pg, err := newPager(sys, cfg, series)
	if err != nil {
		return nil, err
	}
	pg.Dom.Go("warm", func(t *domain.Thread) { pg.warmUp(t) })
	return pg, nil
}

// Remap returns a copy of a warmed pager re-pointed at its forked twins via
// the snapshot's identity maps. The copy carries the warm-up's progress
// counters; call Resume on it to start the steady-state threads in the
// forked world.
func (pg *Pager) Remap(snap *core.Snapshot) (*Pager, error) {
	ndom := snap.Dom[pg.Dom]
	nst := snap.Stretch[pg.Stretch]
	ndrv, _ := snap.Driver[pg.Drv].(*stretchdrv.Paged)
	if ndom == nil || nst == nil || ndrv == nil {
		return nil, fmt.Errorf("workload: snapshot has no twin for pager %q", pg.Cfg.Name)
	}
	np := *pg
	np.Dom, np.Stretch, np.Drv = ndom, nst, ndrv
	return &np, nil
}

// Resume attaches the steady-state main and watch threads to a warmed
// (possibly just-forked) pager. The main loop starts at the top of the
// stretch, exactly where StartPager's would be after its initialisation; the
// frames the warm thread preallocated still belong to the domain, so the
// loop recycles them rather than allocating again.
func (pg *Pager) Resume() {
	pg.Dom.Go("main", pg.steady)
	pg.Dom.Go("watch", pg.watch)
}
