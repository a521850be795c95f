package main

import (
	"fmt"
	"sync"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/obs"
	"nemesis/internal/stretchdrv"
)

// layerStats is the deterministic work a run did, layer by layer, summed
// over the simulated worlds it measured, plus the simulated-latency
// histograms those worlds' telemetry registries kept (traced runs only).
type layerStats struct {
	Events                        int64
	TLBHits, TLBMisses            int64
	Faults, PageIns, PageOuts     int64
	CleanTxns                     int64
	USDTxns                       int64
	USDLax                        time.Duration
	DiskReads, DiskWrites         int64
	DiskBusy                      time.Duration
	RemoteReads, RemoteWrites     int64
	Spans, SpansEvicted           int64
	QueueWait, DiskService, Fault obs.HistSnapshot
	NetOut                        obs.HistSnapshot
	// RemoteStore holds the server-side store hop durations (ns) from the
	// retained spans of a traced cluster's merged timeline.
	RemoteStore []float64
}

// addSystem folds one simulated world into s. It reads only exported
// accessors, so it is safe on a world that is shutting down.
func (s *layerStats) addSystem(sys *core.System) {
	s.Events += sys.Sim.Dispatched()
	tlb := sys.TS.TLB()
	s.TLBHits += tlb.Hits()
	s.TLBMisses += tlb.Misses()
	d := sys.Disk.Stats()
	s.DiskReads += d.Reads
	s.DiskWrites += d.Writes
	s.DiskBusy += d.BusyTime
	for _, dom := range sys.Domains() {
		for _, b := range dom.Bindings() {
			var st *stretchdrv.PagerStats
			switch drv := b.Driver.(type) {
			case *stretchdrv.Paged:
				st = &drv.Stats
			case *stretchdrv.Mapped:
				st = &drv.Stats
			case *stretchdrv.Physical:
				st = &drv.Stats
			}
			if st != nil {
				s.Faults += st.Faults
				s.PageIns += st.PageIns
				s.PageOuts += st.PageOuts
				s.CleanTxns += st.CleanTxns
			}
			// A paged stretch's swap file is a USD client of its own.
			s.addUSDClient(sys, fmt.Sprintf("%s-swap-%d", dom.Name(), b.SID))
		}
		s.addUSDClient(sys, dom.Name())
	}
	reg := sys.Obs
	if reg == nil {
		return
	}
	s.Spans += reg.SpanTotal()
	s.SpansEvicted += reg.SpansEvicted()
	for _, h := range reg.Summarize(1).Hops {
		if h.Hop == "net.out" {
			s.NetOut.Merge(h.Hist)
		}
	}
	s.DiskService.Merge(reg.LookupHistogram("disk", "service.read", "").Snapshot())
	s.DiskService.Merge(reg.LookupHistogram("disk", "service.write", "").Snapshot())
	for _, dom := range sys.Domains() {
		s.Fault.Merge(reg.LookupHistogram("span", "e2e.page", dom.Name()).Snapshot())
	}
}

// addUSDClient adds the named USD client's transactions, lax charge and,
// with telemetry on, queue waits. Every USD transaction goes through a
// client, so its histogram covers the paging path as well as sfs.
func (s *layerStats) addUSDClient(sys *core.System, name string) {
	if u, ok := sys.USD.Stats(name); ok {
		s.USDTxns += u.Txns
		s.USDLax += u.LaxCharged
	}
	s.QueueWait.Merge(sys.Obs.LookupHistogram("usd", "queue_wait", name).Snapshot())
}

// addWork adds k times the work counts of o to s; k = -1 removes them.
func (s *layerStats) addWork(o *layerStats, k int64) {
	s.Events += k * o.Events
	s.TLBHits += k * o.TLBHits
	s.TLBMisses += k * o.TLBMisses
	s.Faults += k * o.Faults
	s.PageIns += k * o.PageIns
	s.PageOuts += k * o.PageOuts
	s.CleanTxns += k * o.CleanTxns
	s.USDTxns += k * o.USDTxns
	s.USDLax += time.Duration(k) * o.USDLax
	s.DiskReads += k * o.DiskReads
	s.DiskWrites += k * o.DiskWrites
	s.DiskBusy += time.Duration(k) * o.DiskBusy
	s.RemoteReads += k * o.RemoteReads
	s.RemoteWrites += k * o.RemoteWrites
	s.Spans += k * o.Spans
	s.SpansEvicted += k * o.SpansEvicted
}

// addStoreHops collects the swap servers' store hops from a merged cluster
// timeline (server lanes are named "m<i>.swap<j>").
func (s *layerStats) addStoreHops(dump *obs.TimelineDump) {
	if dump == nil {
		return
	}
	for _, sp := range dump.Spans {
		for _, h := range sp.Hops {
			if h.Name == "store" {
				s.RemoteStore = append(s.RemoteStore, float64(h.EndNs-h.StartNs))
			}
		}
	}
}

// sameWork reports whether two runs did identical simulated work: every
// count must match for a run to count as the same work.
func (s *layerStats) sameWork(o *layerStats) bool {
	return s.Events == o.Events && s.TLBHits == o.TLBHits && s.TLBMisses == o.TLBMisses &&
		s.Faults == o.Faults && s.PageIns == o.PageIns && s.PageOuts == o.PageOuts &&
		s.CleanTxns == o.CleanTxns && s.USDTxns == o.USDTxns && s.USDLax == o.USDLax &&
		s.DiskReads == o.DiskReads && s.DiskWrites == o.DiskWrites && s.DiskBusy == o.DiskBusy &&
		s.RemoteReads == o.RemoteReads && s.RemoteWrites == o.RemoteWrites &&
		s.Spans == o.Spans && s.SpansEvicted == o.SpansEvicted
}

// simMs returns a histogram quantile in simulated milliseconds, or 0 when
// too few samples lie beyond it to report it.
func simMs(h obs.HistSnapshot, q float64) float64 {
	if !countSupports(h.Count, q) {
		return 0
	}
	return float64(h.Quantile(q)) / 1e6
}

// metrics renders the per-layer work counts and simulated waits.
func (s *layerStats) metrics(m map[string]float64) {
	m["sim.events"] = float64(s.Events)
	m["vm.tlb_hits"] = float64(s.TLBHits)
	m["vm.tlb_misses"] = float64(s.TLBMisses)
	m["stretchdrv.faults"] = float64(s.Faults)
	m["stretchdrv.page_ins"] = float64(s.PageIns)
	m["stretchdrv.page_outs"] = float64(s.PageOuts)
	m["stretchdrv.clean_txns"] = float64(s.CleanTxns)
	m["usd.txns"] = float64(s.USDTxns)
	m["usd.lax_ms"] = float64(s.USDLax) / 1e6
	m["disk.reads"] = float64(s.DiskReads)
	m["disk.writes"] = float64(s.DiskWrites)
	m["disk.busy_sim_s"] = s.DiskBusy.Seconds()
	m["netswap.remote_reads"] = float64(s.RemoteReads)
	m["netswap.remote_writes"] = float64(s.RemoteWrites)
	m["obs.spans"] = float64(s.Spans)
	m["obs.spans_evicted"] = float64(s.SpansEvicted)
	m["usd.queue_wait_p99_sim_ms"] = simMs(s.QueueWait, 0.99)
	m["disk.service_p50_sim_ms"] = simMs(s.DiskService, 0.50)
	m["domain.fault_p99_sim_ms"] = simMs(s.Fault, 0.99)
	m["netswap.net_out_p99_sim_ms"] = simMs(s.NetOut, 0.99)
	store, ok := percentile(s.RemoteStore, 50)
	if !ok {
		store = 0
	}
	m["netswap.remote_store_p50_sim_ms"] = store / 1e6
}

// worldTally sums the worlds shut down while it is installed as
// core.ShutdownHook. Worlds shut down concurrently (cluster machines, serve
// jobs), hence the lock.
type worldTally struct {
	mu    sync.Mutex
	stats layerStats
}

// install makes t the shutdown hook until the returned function runs.
func (t *worldTally) install() (uninstall func()) {
	core.ShutdownHook = func(sys *core.System) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.stats.addSystem(sys)
	}
	return func() { core.ShutdownHook = nil }
}

// snapshot returns a copy of the sums so far.
func (t *worldTally) snapshot() layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
