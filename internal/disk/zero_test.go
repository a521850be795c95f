package disk

import (
	"bytes"
	"testing"

	"nemesis/internal/sim"
)

// pattern returns count blocks of recognisable non-zero bytes.
func pattern(count int, seed byte) []byte {
	buf := make([]byte, count*BlockSize)
	for i := range buf {
		buf[i] = seed + byte(i%249) + 1
	}
	return buf
}

// runIO runs fn as a process on s to completion.
func runIO(t *testing.T, s *sim.Simulator, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	s.Spawn("io", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	s.RunUntilIdle(10000)
	if !done {
		t.Fatal("io proc did not finish")
	}
}

// TestZeroWritesOverData: a pattern, then zeros over it, reads back as
// zeros — through ReadAt's bytes and Read's page value — and zeros over a
// whole chunk give its bytes up.
func TestZeroWritesOverData(t *testing.T) {
	s, d := newDisk()
	runIO(t, s, func(p *sim.Proc) {
		if err := d.WriteAt(p, 600, 16, pattern(16, 3)); err != nil {
			t.Fatal(err)
		}
		if d.StoredBytes() != ChunkBytes {
			t.Errorf("a written pattern stores %d bytes, want one chunk", d.StoredBytes())
		}
		if err := d.WriteAt(p, 600, 16, nil); err != nil {
			t.Fatal(err)
		}
		got := pattern(16, 9)
		if err := d.ReadAt(p, 600, 16, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 16*BlockSize)) {
			t.Error("zeros written over a pattern did not read back as zeros")
		}
		// The neighbouring blocks of the chunk keep their zeros too, and a
		// pattern next to the zeroed range survives.
		if err := d.WriteAt(p, 616, 16, pattern(16, 5)); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadAt(p, 616, 16, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(16, 5)) {
			t.Error("pattern beside a zeroed range corrupted")
		}
		// Zeros over the whole chunk (blocks 512-1023) drop its bytes.
		if err := d.WriteAt(p, 512, chunkBlocks, nil); err != nil {
			t.Fatal(err)
		}
		if d.StoredBytes() != 0 {
			t.Errorf("a chunk of zeros still stores %d bytes", d.StoredBytes())
		}
		page, err := d.Read(p, 616, 16, got)
		if err != nil {
			t.Fatal(err)
		}
		if page != nil {
			t.Error("Read of a zero chunk returned bytes, want the nil page")
		}
	})
	if _, populated := d.SharedChunks(); populated != 1 {
		t.Errorf("%d written chunks, want 1", populated)
	}
}

// TestZeroWritesAllocateNothing: writing zeros to a fresh drive stores no
// bytes, yet the chunk counts as written.
func TestZeroWritesAllocateNothing(t *testing.T) {
	s, d := newDisk()
	runIO(t, s, func(p *sim.Proc) {
		if err := d.WriteAt(p, 4096, 64, nil); err != nil {
			t.Fatal(err)
		}
		got := pattern(64, 1)
		page, err := d.Read(p, 4096, 64, got)
		if err != nil || page != nil {
			t.Fatalf("Read = %v, %v; want the nil page", page != nil, err)
		}
		if !bytes.Equal(got, pattern(64, 1)) {
			t.Error("Read of zeros wrote into the caller's buffer")
		}
	})
	if d.StoredBytes() != 0 {
		t.Errorf("zero writes stored %d bytes", d.StoredBytes())
	}
	if _, populated := d.SharedChunks(); populated != 1 {
		t.Errorf("%d written chunks, want 1", populated)
	}
}

// TestZeroWriteIntoForkSharedChunk: zeros written into a chunk shared with
// a fork change only the writer's view, in either direction.
func TestZeroWriteIntoForkSharedChunk(t *testing.T) {
	s, d := newDisk()
	runIO(t, s, func(p *sim.Proc) {
		if err := d.WriteAt(p, 2048, 32, pattern(32, 7)); err != nil {
			t.Fatal(err)
		}
	})
	s2 := sim.New(1)
	child := d.Fork(s2, nil)
	if shared, _ := d.SharedChunks(); shared != 1 {
		t.Fatalf("parent shares %d chunks after fork, want 1", shared)
	}
	runIO(t, s2, func(p *sim.Proc) {
		if err := child.WriteAt(p, 2048, 16, nil); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 32*BlockSize)
		if err := child.ReadAt(p, 2048, 32, got); err != nil {
			t.Fatal(err)
		}
		want := append(make([]byte, 16*BlockSize), pattern(32, 7)[16*BlockSize:]...)
		if !bytes.Equal(got, want) {
			t.Error("child does not see its own zeros beside the shared pattern")
		}
	})
	runIO(t, s, func(p *sim.Proc) {
		got := make([]byte, 32*BlockSize)
		if err := d.ReadAt(p, 2048, 32, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(32, 7)) {
			t.Error("child's zero write leaked into the parent")
		}
		// And the other way: the parent zeroes the whole chunk.
		if err := d.WriteAt(p, 2048-2048%chunkBlocks, chunkBlocks, nil); err != nil {
			t.Fatal(err)
		}
	})
	runIO(t, s2, func(p *sim.Proc) {
		got := make([]byte, 16*BlockSize)
		if err := child.ReadAt(p, 2064, 16, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(32, 7)[16*BlockSize:]) {
			t.Error("parent's zero write leaked into the child")
		}
	})
}
