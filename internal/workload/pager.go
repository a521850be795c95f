// Package workload implements the applications of the paper's evaluation:
// the paging test application (§7.2 — a tiny physical allocation, a large
// virtual stretch, sequential byte access with a watch thread logging
// progress every 5 seconds) and the pipelined file-system client of the
// isolation experiment (Fig. 9).
package workload

import (
	"fmt"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/disk"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/netswap"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/trace"
	"nemesis/internal/usd"
	"nemesis/internal/vm"
)

// PagerConfig describes one paging test application.
type PagerConfig struct {
	Name string
	// CPUQoS is the domain's processor contract.
	CPUQoS atropos.QoS
	// DiskQoS is the domain's USD contract for its swap file.
	DiskQoS atropos.QoS
	// PhysFrames is the guaranteed physical allocation (the paper uses 2
	// frames = 16 KB).
	PhysFrames int
	// VirtBytes is the stretch size (paper: 4 MB).
	VirtBytes uint64
	// SwapBytes is the swap file size (paper: 16 MB).
	SwapBytes int64
	// Write makes the main loop write every byte instead of reading
	// (the page-out experiment).
	Write bool
	// Forgetful installs the modified stretch driver that never pages in
	// (shorthand for Writeback = stretchdrv.WritebackForgetful).
	Forgetful bool
	// Policy selects the replacement policy ("" = FIFO).
	Policy stretchdrv.PolicyKind
	// Writeback selects the writeback policy ("" = demand, unless
	// Forgetful is set).
	Writeback stretchdrv.WritebackKind
	// ClusterSize caps how many dirty pages one eviction cleans in a
	// single batch (<= 1 disables write clustering).
	ClusterSize int
	// Backing selects where the pager cleans to: the local swap file
	// (default), the remote swap server, or the tiered composition.
	Backing core.BackingKind
	// Remote overrides the netswap fabric's default RPC options for this
	// pager's client (nil = fabric defaults; only used with a remote or
	// tiered backing).
	Remote *netswap.RemoteOptions
	// Tiered overrides the fabric's default tiering options (nil =
	// fabric defaults; only used with a tiered backing).
	Tiered *netswap.TieredOptions
	// SkipInit skips the initialisation passes (demand-zero read and
	// dirtying write) — used by ablations that only need steady traffic.
	SkipInit bool
	// SampleEvery is the watch thread period (paper: 5 s).
	SampleEvery time.Duration
}

// DefaultPagerConfig returns the paper's application parameters.
func DefaultPagerConfig(name string, slice time.Duration) PagerConfig {
	return PagerConfig{
		Name:        name,
		CPUQoS:      atropos.QoS{P: 100 * time.Millisecond, S: 20 * time.Millisecond, X: true},
		DiskQoS:     atropos.QoS{P: 250 * time.Millisecond, S: slice, X: false, L: 10 * time.Millisecond},
		PhysFrames:  2,
		VirtBytes:   4 << 20,
		SwapBytes:   16 << 20,
		SampleEvery: 5 * time.Second,
	}
}

// Pager is a running paging application.
type Pager struct {
	Cfg     PagerConfig
	Dom     *domain.Domain
	Stretch *vm.Stretch
	Drv     *stretchdrv.Paged
	// Bytes is the progress counter the main thread increments.
	Bytes int64
	// Initialised flips once the setup passes complete; the watch thread
	// only samples after it.
	Initialised bool
	// Series receives sustained bandwidth samples (Mbit/s).
	Series *trace.Series

	lastBytes int64
	lastAt    sim.Time
}

// StartPager creates the domain, stretch, driver and threads for cfg.
// The returned Pager's threads run until the simulation stops.
func StartPager(sys *core.System, cfg PagerConfig, series *trace.Series) (*Pager, error) {
	pg, err := newPager(sys, cfg, series)
	if err != nil {
		return nil, err
	}
	pg.Dom.Go("main", func(t *domain.Thread) {
		if pg.warmUp(t) {
			pg.steady(t)
		}
	})
	pg.Dom.Go("watch", pg.watch)
	return pg, nil
}

// newPager creates the application's domain, stretch and paged driver;
// it starts no threads.
func newPager(sys *core.System, cfg PagerConfig, series *trace.Series) (*Pager, error) {
	dom, err := sys.NewDomain(cfg.Name, cfg.CPUQoS, mem.Contract{Guaranteed: uint64(cfg.PhysFrames)})
	if err != nil {
		return nil, err
	}
	wb := cfg.Writeback
	if wb == "" && cfg.Forgetful {
		wb = stretchdrv.WritebackForgetful
	}
	st, gdrv, err := sys.NewStretch(dom, core.PagerSpec{
		Kind:        core.KindPaged,
		Size:        cfg.VirtBytes,
		SwapBytes:   cfg.SwapBytes,
		DiskQoS:     cfg.DiskQoS,
		Policy:      cfg.Policy,
		Writeback:   wb,
		ClusterSize: cfg.ClusterSize,
		Backing:     cfg.Backing,
		Remote:      cfg.Remote,
		Tiered:      cfg.Tiered,
	})
	if err != nil {
		return nil, err
	}
	return &Pager{Cfg: cfg, Dom: dom, Stretch: st, Drv: gdrv.(*stretchdrv.Paged), Series: series}, nil
}

// warmUp preallocates the guaranteed frames and runs the initialisation
// passes: sequentially read every byte (every page demand-zeroed), then
// write every byte (dirtying them all). It reports whether the pager
// initialised.
func (pg *Pager) warmUp(t *domain.Thread) bool {
	if err := core.PreallocateFrames(t, pg.Cfg.PhysFrames); err != nil {
		return false
	}
	if !pg.Cfg.SkipInit {
		base, n := pg.Stretch.Base(), int(pg.Cfg.VirtBytes)
		if err := t.Touch(base, n, vm.AccessRead); err != nil {
			return false
		}
		if err := t.Touch(base, n, vm.AccessWrite); err != nil {
			return false
		}
	}
	pg.Initialised = true
	return true
}

// steady is the main loop: sequentially access every byte from the start
// of the stretch, incrementing the counter, looping around at the top.
// Bandwidth samples count from the loop's first instant.
func (pg *Pager) steady(t *domain.Thread) {
	acc := vm.AccessRead
	if pg.Cfg.Write {
		acc = vm.AccessWrite
	}
	base, n := pg.Stretch.Base(), int(pg.Cfg.VirtBytes)
	pg.lastBytes = pg.Bytes
	pg.lastAt = t.Now()
	for {
		for off := 0; off < n; off += vm.PageSize {
			if err := t.Touch(base+vm.VA(off), vm.PageSize, acc); err != nil {
				return
			}
			pg.Bytes += int64(vm.PageSize)
		}
	}
}

// watch wakes every SampleEvery and logs bytes processed.
func (pg *Pager) watch(t *domain.Thread) {
	for {
		t.Sleep(pg.Cfg.SampleEvery)
		pg.sample(t.Now())
	}
}

// sample records the sustained bandwidth since the previous sample.
func (pg *Pager) sample(now sim.Time) {
	if !pg.Initialised || pg.Series == nil {
		return
	}
	dt := now.Sub(pg.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	mbps := float64(pg.Bytes-pg.lastBytes) * 8 / 1e6 / dt
	pg.Series.Add(now, mbps)
	pg.lastBytes = pg.Bytes
	pg.lastAt = now
}

// FSClientConfig describes the pipelined file-system client of Fig. 9.
type FSClientConfig struct {
	Name string
	// DiskQoS is the client's USD contract (paper: 125 ms per 250 ms).
	DiskQoS atropos.QoS
	// Depth is the pipeline depth (it "trades off additional buffer space
	// against disk latency").
	Depth int
	// Partition is the disk region the client streams from (a different
	// partition from the swap files).
	Partition usd.Extent
	// ProcessTime is per-completion application processing (checksum,
	// copyout, ...). With a shallow pipeline this time leaves the disk
	// idle (charged as lax); with a deep one it overlaps transactions —
	// the buffer-space/latency trade-off the paper mentions.
	ProcessTime time.Duration
	// SampleEvery is the bandwidth sampling period.
	SampleEvery time.Duration
}

// DefaultFSClientConfig returns the paper's file-system client: 50% of the
// disk, transactions each the size of a page.
func DefaultFSClientConfig(name string, partition usd.Extent) FSClientConfig {
	return FSClientConfig{
		Name:        name,
		DiskQoS:     atropos.QoS{P: 250 * time.Millisecond, S: 125 * time.Millisecond, X: false, L: 10 * time.Millisecond},
		Depth:       8,
		Partition:   partition,
		SampleEvery: 5 * time.Second,
	}
}

// FSClient is a running file-system client.
type FSClient struct {
	Cfg    FSClientConfig
	Bytes  int64
	Series *trace.Series

	lastBytes int64
	lastAt    sim.Time
	stopped   bool
}

// StartFSClient opens a USD channel with the configured QoS and streams
// page-sized sequential reads, keeping Depth requests in flight.
func StartFSClient(sys *core.System, cfg FSClientConfig, series *trace.Series) (*FSClient, error) {
	ch, err := sys.USD.Open(cfg.Name, cfg.DiskQoS, cfg.Depth)
	if err != nil {
		return nil, err
	}
	if err := sys.USD.Grant(cfg.Name, cfg.Partition); err != nil {
		return nil, err
	}
	fc := &FSClient{Cfg: cfg, Series: series}
	pageBlocks := int(vm.PageSize / disk.BlockSize)

	sys.Sim.Spawn(cfg.Name, func(p *sim.Proc) {
		fc.lastAt = p.Now()
		next := cfg.Partition.Start
		inflight := 0
		// Completed requests are resubmitted rather than reallocated; their
		// Data buffers (sized by the first Submit) ride along, so a
		// steady-state client allocates nothing per read.
		var free []*usd.Request
		for !fc.stopped {
			for inflight < cfg.Depth {
				var req *usd.Request
				if n := len(free); n > 0 {
					req = free[n-1]
					free[n-1] = nil
					free = free[:n-1]
					req.Block = next
					req.Err = nil
				} else {
					req = &usd.Request{Op: disk.Read, Block: next, Count: pageBlocks}
				}
				if err := ch.Submit(p, req); err != nil {
					return
				}
				inflight++
				next += int64(pageBlocks)
				if next+int64(pageBlocks) > cfg.Partition.Start+cfg.Partition.Count {
					next = cfg.Partition.Start
				}
			}
			done, err := ch.Await(p)
			if err != nil {
				return
			}
			free = append(free, done)
			inflight--
			fc.Bytes += int64(vm.PageSize)
			if cfg.ProcessTime > 0 {
				p.Sleep(cfg.ProcessTime)
			}
		}
	})

	sys.Sim.Spawn(cfg.Name+"/watch", func(p *sim.Proc) {
		for !fc.stopped {
			p.Sleep(cfg.SampleEvery)
			fc.sample(p.Now())
		}
	})
	return fc, nil
}

// Stop ends the client's loops at their next iteration.
func (fc *FSClient) Stop() { fc.stopped = true }

func (fc *FSClient) sample(now sim.Time) {
	if fc.Series == nil {
		return
	}
	dt := now.Sub(fc.lastAt).Seconds()
	if dt <= 0 {
		return
	}
	fc.Series.Add(now, float64(fc.Bytes-fc.lastBytes)*8/1e6/dt)
	fc.lastBytes = fc.Bytes
	fc.lastAt = now
}

// String summarises progress.
func (pg *Pager) String() string {
	return fmt.Sprintf("%s: %d bytes", pg.Cfg.Name, pg.Bytes)
}
