package mem

import "testing"

// TestFrameStoreZeroFrames: a frame that reads as zero holds no bytes —
// zero-filled, or zeroed after a write — while Page and Frame agree on its
// contents.
func TestFrameStoreZeroFrames(t *testing.T) {
	fs := NewFrameStore(4)
	fs.Zero(1)
	if fs.Page(1) != nil || fs.StoredBytes() != 0 {
		t.Fatalf("zero-filled frame holds bytes: page %v, stored %d", fs.Page(1) != nil, fs.StoredBytes())
	}
	f := fs.Frame(1)
	f[10] = 0x5A
	if p := fs.Page(1); p == nil || p[10] != 0x5A {
		t.Fatal("Page does not show a written byte")
	}
	if fs.StoredBytes() != PageSize {
		t.Fatalf("stored %d bytes after one write, want one page", fs.StoredBytes())
	}
	fs.Zero(1)
	if fs.Page(1) != nil || fs.StoredBytes() != 0 {
		t.Fatal("Zero after a write left the frame holding bytes")
	}
	if g := fs.Frame(1); g[10] != 0 {
		t.Fatal("a zeroed frame read back its old byte")
	}
	fs.SetPage(2, nil)
	if fs.Page(2) != nil {
		t.Fatal("SetPage(nil) stored bytes")
	}
	src := make([]byte, PageSize)
	src[0] = 7
	fs.SetPage(2, src)
	src[0] = 8
	if fs.Page(2)[0] != 7 {
		t.Fatal("SetPage did not copy its page")
	}
}

// TestFrameStoreForkZeroFrames: a fork counts every touched frame, zeros
// included, but copies only the bytes that exist, and the copies are
// independent.
func TestFrameStoreForkZeroFrames(t *testing.T) {
	fs := NewFrameStore(8)
	fs.Zero(0)
	fs.Frame(1)[0] = 0xAA
	fs.Frame(2)[0] = 0xBB
	fs.Zero(2)
	nfs, bytes := fs.Fork()
	if bytes != 3*PageSize {
		t.Fatalf("fork counted %d bytes, want three touched frames", bytes)
	}
	if nfs.StoredBytes() != PageSize {
		t.Fatalf("fork holds %d bytes, want the one frame with data", nfs.StoredBytes())
	}
	nfs.Frame(1)[0] = 0xCC
	nfs.Frame(0)[1] = 0xDD
	if fs.Page(1)[0] != 0xAA || fs.Page(0) != nil {
		t.Fatal("a write to the fork reached the parent")
	}
	if again, bytes := nfs.Fork(); bytes != 3*PageSize || again.Page(0)[1] != 0xDD {
		t.Fatalf("fork of a fork: %d bytes", bytes)
	}
}
