// Quickstart: build a simulated Nemesis machine, create one self-paging
// domain with a tiny physical allocation and a larger virtual stretch,
// write and read back data that must survive round trips through the
// User-Safe Backing Store, and print what happened. It exits non-zero if
// any byte comes back corrupt, or if the check never finished.
package main

import (
	"fmt"
	"log"
	"time"

	"nemesis/internal/atropos"
	"nemesis/internal/core"
	"nemesis/internal/domain"
	"nemesis/internal/mem"
	"nemesis/internal/vm"
)

func main() {
	log.SetFlags(0)

	// A machine: 64 MB RAM, the paper's Quantum VP3221 disk, swap on the
	// second half of the disk.
	sys := core.New(core.DefaultConfig())

	// A domain with contracts for every resource it will use:
	//   CPU:  20 ms per 100 ms (eligible for slack),
	//   RAM:  4 guaranteed frames (32 KB),
	//   disk: 100 ms per 250 ms for its swap file, laxity 10 ms.
	dom, err := sys.NewDomain("quickstart",
		atropos.QoS{P: 100 * time.Millisecond, S: 20 * time.Millisecond, X: true},
		mem.Contract{Guaranteed: 4})
	if err != nil {
		log.Fatal(err)
	}

	// A 1 MB stretch (128 pages) backed by a paged stretch driver with a
	// 4 MB swap file: far more virtual than physical memory, so the
	// domain pages against itself — and only itself.
	st, drv, err := sys.NewPagedStretch(dom, 1<<20, 4<<20,
		atropos.QoS{P: 250 * time.Millisecond, S: 100 * time.Millisecond, L: 10 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}

	bad, verified := 0, false
	dom.Go("main", func(t *domain.Thread) {
		// Grab the guaranteed frames up front, as time-sensitive Nemesis
		// applications do, so no later allocation can block.
		if err := core.PreallocateFrames(t, 4); err != nil {
			log.Fatal(err)
		}

		// Write a recognisable pattern across all 128 pages. With only 4
		// frames, most pages will be evicted to swap along the way.
		page := make([]byte, vm.PageSize)
		for pg := 0; pg < st.Pages(); pg++ {
			for i := range page {
				page[i] = byte((pg + i) % 251)
			}
			if err := t.WriteAt(st.PageBase(pg), page); err != nil {
				log.Fatal(err)
			}
		}

		// Read everything back and verify: every byte has been through
		// the frame store, and most pages through the disk.
		for pg := 0; pg < st.Pages(); pg++ {
			if err := t.ReadAt(st.PageBase(pg), page); err != nil {
				log.Fatal(err)
			}
			for i := range page {
				if page[i] != byte((pg+i)%251) {
					bad++
				}
			}
		}
		fmt.Printf("verified %d pages, %d corrupt bytes\n", st.Pages(), bad)
		verified = true
	})

	sys.Run(2 * time.Minute)
	sys.Shutdown()

	s := drv.Stats
	fmt.Printf("simulated time: %v\n", sys.Sim.Now())
	fmt.Printf("page faults: %d (fast path %d), page-ins: %d, page-outs: %d, evictions: %d\n",
		s.Faults, s.FastFaults, s.PageIns, s.PageOuts, s.Evictions)
	fmt.Printf("frames held: %d of %d guaranteed; swap bloks free: %d\n",
		dom.MemClient().Allocated(), dom.MemClient().Contract().Guaranteed, drv.SwapFreeBloks())
	if ds, ok := sys.USD.Stats(drv.Swap().Name()); ok {
		fmt.Printf("disk: %d transactions, %v charged (%v of it lax)\n", ds.Txns, ds.Charged, ds.LaxCharged)
	}
	switch {
	case !verified:
		log.Fatal("quickstart: the read-back check did not finish")
	case bad > 0:
		log.Fatalf("quickstart: %d corrupt bytes", bad)
	}
}
