package netswap_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"nemesis/internal/netswap"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// TestRemoteMixedBatchesUnderLossAndDuplication: batches that mix zero and
// non-zero pages survive a lossy, duplicating link. The client recycles its
// page buffers as soon as each write returns (as the pager engine does), so
// a retransmit or late duplicate that aliased them would store scribbled
// bytes; every page must still read back exactly after the late frames
// have landed, and again after each later batch flips zero and non-zero
// pages. The last page of a batch always holds data: a duplicate of the
// batch's last RPC is the one most likely to be serviced after the write
// has returned.
// One-page RPCs are the sharpest case: the server hands a lone page to its
// disk as it is, and the disk copies it only at the end of service.
func TestRemoteMixedBatchesUnderLossAndDuplication(t *testing.T) {
	for _, maxBatch := range []int{1, 16} {
		t.Run(fmt.Sprintf("maxbatch-%d", maxBatch), func(t *testing.T) {
			testRemoteMixedBatches(t, maxBatch)
		})
	}
}

func testRemoteMixedBatches(t *testing.T, maxBatch int) {
	s := sim.New(3)
	cfg := netswap.DefaultConfig()
	cfg.Link.DropProb = 0.2
	cfg.Link.DupProb = 0.3
	cfg.Remote.Timeout = 60 * time.Millisecond
	cfg.Remote.Backoff = 5 * time.Millisecond
	cfg.Remote.MaxBatch = maxBatch
	fab := newFabric(t, s, cfg)
	defer fab.Stop()
	rb, err := fab.NewRemoteBacking("c1", "dom", nil)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 40 // several pipelined RPCs per batch
	va := func(i int) vm.VA { return vm.VA(0x1000000000 + i*vm.PageSize) }
	want := make([][]byte, pages)
	write := func(p *sim.Proc, round int) {
		var batch []stretchdrv.DirtyPage
		for i := 0; i < pages; i++ {
			want[i] = nil
			if (i+round)%3 != 0 || i == pages-1 {
				want[i] = page(byte(17*i + round + 1))
			}
			var data []byte
			if want[i] != nil {
				data = append([]byte(nil), want[i]...)
			}
			batch = append(batch, stretchdrv.DirtyPage{VA: va(i), Data: data})
		}
		if _, err := rb.WritePages(p, batch, nil); err != nil {
			t.Fatalf("round %d: WritePages: %v", round, err)
		}
		for _, pg := range batch {
			for k := range pg.Data {
				pg.Data[k] = 0xEE // the engine reuses the buffer
			}
		}
	}
	check := func(p *sim.Proc, round int) {
		buf := make([]byte, vm.PageSize)
		for i := 0; i < pages; i++ {
			copy(buf, page(0xEE))
			if err := rb.ReadPage(p, va(i), buf, nil); err != nil {
				t.Fatalf("round %d: ReadPage %d: %v", round, i, err)
			}
			exp := want[i]
			if exp == nil {
				exp = make([]byte, vm.PageSize)
			}
			if !bytes.Equal(buf, exp) {
				t.Fatalf("round %d: page %d corrupted (got %#x..., want %#x...)", round, i, buf[0], exp[0])
			}
		}
	}
	drive(t, s, func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			write(p, round)
			p.Sleep(time.Second) // late duplicates and replies land
			check(p, round)
		}
	})
	if fab.Link.Stats.Dups == 0 || rb.Stats.Retries == 0 {
		t.Fatalf("link neither duplicated nor lost frames: %+v, %+v", fab.Link.Stats, rb.Stats)
	}
}
