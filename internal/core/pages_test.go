package core

import (
	"testing"
	"time"

	"nemesis/internal/atropos"

	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

// TestEveryBackingRoundTripsMixedPages writes real bytes with
// Thread.WriteAt through every backing — local swap (with and without
// write clustering), remote, tiered, streaming and a mapped file — beside
// pages that hold only zeros, with two frames for 24 pages so every page is
// cleaned and paged back in. A second pass turns some data pages to zeros
// and some zero pages to data; both passes must read back exactly.
func TestEveryBackingRoundTripsMixedPages(t *testing.T) {
	const pages = 24
	cases := []struct {
		name string
		spec func(sys *System) PagerSpec
	}{
		{"swap", func(*System) PagerSpec { return PagerSpec{SwapBytes: 64 * vm.PageSize, DiskQoS: diskShare()} }},
		{"swap-clustered", func(*System) PagerSpec {
			return PagerSpec{SwapBytes: 64 * vm.PageSize, DiskQoS: diskShare(), ClusterSize: 4}
		}},
		{"remote", func(*System) PagerSpec { return PagerSpec{Backing: BackingRemote} }},
		{"tiered", func(*System) PagerSpec {
			return PagerSpec{Backing: BackingTiered, SwapBytes: 64 * vm.PageSize, DiskQoS: diskShare()}
		}},
		{"streaming", func(*System) PagerSpec {
			return PagerSpec{Kind: KindStreaming, SwapBytes: 64 * vm.PageSize, DiskQoS: diskShare(), Window: 2, PrefetchQoS: atropos.QoS{P: ms(250), S: ms(25), L: ms(10)}}
		}},
		{"mapped", func(sys *System) PagerSpec {
			f, err := sys.SFS.CreateSwapFile("mapped-file", pages*vm.PageSize, diskShare(), 1)
			if err != nil {
				t.Fatal(err)
			}
			return PagerSpec{Kind: KindMapped, File: f}
		}},
	}
	// content is page pg's bytes in a pass: nil for a page of zeros.
	content := func(pg, pass int) []byte {
		if (pg+pass)%3 == 0 {
			return nil
		}
		buf := make([]byte, vm.PageSize)
		for i := range buf {
			buf[i] = byte((pg*31+i+pass*7)%251) + 1
		}
		return buf
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := smallSystem()
			d, err := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
			if err != nil {
				t.Fatal(err)
			}
			spec := tc.spec(sys)
			spec.Size = pages * vm.PageSize
			st, _, err := sys.NewStretch(d, spec)
			if err != nil {
				t.Fatal(err)
			}
			verified := 0
			d.Go("main", func(th *domain.Thread) {
				if err := PreallocateFrames(th, 2); err != nil {
					t.Error(err)
					return
				}
				zero := make([]byte, vm.PageSize)
				got := make([]byte, vm.PageSize)
				for pass := 0; pass < 2; pass++ {
					for pg := 0; pg < pages; pg++ {
						data := content(pg, pass)
						if data == nil {
							data = zero
						}
						if err := th.WriteAt(st.PageBase(pg), data); err != nil {
							t.Errorf("pass %d: write page %d: %v", pass, pg, err)
							return
						}
					}
					for pg := 0; pg < pages; pg++ {
						if err := th.ReadAt(st.PageBase(pg), got); err != nil {
							t.Errorf("pass %d: read page %d: %v", pass, pg, err)
							return
						}
						want := content(pg, pass)
						if want == nil {
							want = zero
						}
						if string(got) != string(want) {
							t.Errorf("pass %d: page %d corrupted", pass, pg)
							return
						}
					}
					verified++
				}
			})
			sys.Run(2 * time.Minute)
			if verified != 2 {
				t.Fatalf("verified %d of 2 passes", verified)
			}
			if f := d.Stats().PageFaults; f < 4*pages {
				t.Fatalf("%d page faults: the stretch barely paged", f)
			}
			if sys.NetSwap != nil {
				sys.NetSwap.Stop()
			}
			sys.Shutdown()
		})
	}
}

// TestZeroTouchesHoldNoBytes: pages only ever touched, never written with
// data, page through swap without a byte of frame or disk storage — yet a
// fork still counts every touched frame and every written chunk.
func TestZeroTouchesHoldNoBytes(t *testing.T) {
	sys := smallSystem()
	d, _ := sys.NewDomain("app", cpuShare(), mem.Contract{Guaranteed: 2})
	st, drv, err := sys.NewPagedStretch(d, 32*vm.PageSize, 64*vm.PageSize, diskShare())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	d.Go("main", func(th *domain.Thread) {
		if err := PreallocateFrames(th, 2); err != nil {
			t.Error(err)
			return
		}
		for pass := 0; pass < 2; pass++ {
			if err := th.Touch(st.Base(), 32*vm.PageSize, vm.AccessWrite); err != nil {
				t.Error(err)
				return
			}
		}
		done = true
	})
	sys.Run(time.Minute)
	if !done || drv.Stats.PageIns == 0 || drv.Stats.PageOuts == 0 {
		t.Fatalf("done=%v stats %+v: the stretch did not page", done, drv.Stats)
	}
	if n := sys.Store.StoredBytes(); n != 0 {
		t.Errorf("frame store holds %d bytes", n)
	}
	if n := sys.Disk.StoredBytes(); n != 0 {
		t.Errorf("disk holds %d bytes", n)
	}
	snap, err := sys.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Sys.Shutdown()
	if got := snap.Stats.FrameBytes; got < 2*vm.PageSize {
		t.Errorf("fork counted %d frame bytes, want at least the 2 touched frames", got)
	}
	if snap.Stats.SharedChunks == 0 {
		t.Error("fork shared no chunks: zero writes stopped counting")
	}
	sys.Shutdown()
}
