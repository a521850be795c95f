package nemesis

import (
	"context"
	"sync"
	"testing"
	"time"

	"nemesis/internal/core"
	"nemesis/internal/experiments"
)

// TestZeroPagesHoldNoBytes pins the page representation: every experiment
// pages with Thread.Touch, which writes no bytes, so a warmed Fig. 7 world
// and a two-machine cluster run hold no page bytes in their frame stores or
// on their disks — while a fork still accounts logically, counting every
// touched frame and every written chunk (BenchmarkFork's gated figures).
func TestZeroPagesHoldNoBytes(t *testing.T) {
	warm, err := experiments.WarmPaging(benchPagingOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Sys.Shutdown()
	if n := warm.Sys.Store.StoredBytes(); n != 0 {
		t.Errorf("warmed Fig. 7 frame store holds %d bytes", n)
	}
	if n := warm.Sys.Disk.StoredBytes(); n != 0 {
		t.Errorf("warmed Fig. 7 disk holds %d bytes", n)
	}
	snap, err := warm.Sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Sys.Shutdown()
	if snap.Stats.FrameBytes != 49152 || snap.Stats.SharedChunks != 27 {
		t.Errorf("fork accounted %d frame bytes and %d shared chunks, want 49152 and 27",
			snap.Stats.FrameBytes, snap.Stats.SharedChunks)
	}

	var mu sync.Mutex
	machines := 0
	core.ShutdownHook = func(sys *core.System) {
		mu.Lock()
		defer mu.Unlock()
		machines++
		if n := sys.Store.StoredBytes(); n != 0 {
			t.Errorf("cluster machine frame store holds %d bytes", n)
		}
		if n := sys.Disk.StoredBytes(); n != 0 {
			t.Errorf("cluster machine disk holds %d bytes", n)
		}
	}
	defer func() { core.ShutdownHook = nil }()
	opt := experiments.ClusterOptions{Machines: 2, DomainsPerMachine: 100, Measure: 3 * time.Second}
	cr, err := experiments.RunClusterContext(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if machines != 2 || cr.Totals().RemoteReads == 0 {
		t.Errorf("%d machines shut down, %d remote reads: the cluster did not page remotely", machines, cr.Totals().RemoteReads)
	}
}
