// Package mem implements the physical-memory side of the Nemesis VM system:
// the frame store (simulated RAM with real contents), the RamTab recording
// per-frame ownership and state, per-domain frame stacks ordered by
// revocation preference, and the frames allocator with guaranteed/optimistic
// contracts and the two-phase (transparent/intrusive) revocation protocol.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the machine page size: 8 KB, as on the Alpha 21164 the paper
// evaluates on. Frames and pages share this size (logical frame width 0).
const PageSize = 8192

// PFN is a physical frame number.
type PFN uint64

// DomainID identifies a Nemesis domain (the analogue of a process). Domain
// 0 is the system domain.
type DomainID uint32

// SystemDomain is the distinguished system domain.
const SystemDomain DomainID = 0

// Errors returned by the physical memory subsystem. All are sentinels:
// callers match with errors.Is, never by string.
var (
	ErrNoMemory = errors.New("mem: out of physical memory")
	// ErrContractExhausted reports an allocation beyond the client's
	// contracted g+o frames.
	ErrContractExhausted = errors.New("mem: allocation would exceed contracted quota")
	ErrOverbooked        = errors.New("mem: admission would overcommit guaranteed frames")
	ErrNotOwner          = errors.New("mem: frame not owned by caller")
	ErrBadFrame          = errors.New("mem: frame number out of range")
	ErrFrameBusy         = errors.New("mem: frame is mapped or nailed")
	ErrUnknownClient     = errors.New("mem: unknown client domain")
	ErrAlreadyAdmitted   = errors.New("mem: domain already admitted")
	ErrKilledByAlloc     = errors.New("mem: domain killed for failing revocation")
)

// ErrQuota is the historical name for ErrContractExhausted; errors.Is
// matches either.
var ErrQuota = ErrContractExhausted

// FrameStore is the simulated physical memory: nframes frames of PageSize
// bytes, allocated lazily so large memories cost only what is touched. A
// frame that holds only zeros is implicit: it keeps no bytes until written.
type FrameStore struct {
	nframes int
	// data holds each frame's state: nil for a frame never touched, an
	// empty slice for a touched frame that reads as zero, PageSize bytes
	// once something wrote to it. Fork counts every touched frame.
	data [][]byte
}

// zeroFrame marks a touched frame that reads as zero.
var zeroFrame = []byte{}

// NewFrameStore creates a store of nframes frames.
func NewFrameStore(nframes int) *FrameStore {
	return &FrameStore{nframes: nframes, data: make([][]byte, nframes)}
}

// NFrames returns the number of frames of main memory.
func (fs *FrameStore) NFrames() int { return fs.nframes }

func (fs *FrameStore) check(pfn PFN) {
	if int(pfn) >= fs.nframes {
		panic(fmt.Sprintf("mem: frame %d out of range (%d frames)", pfn, fs.nframes))
	}
}

// Frame returns the backing bytes of pfn for writing, allocating them on
// first use. Readers that do not write should use Page, which allocates
// nothing for a zero frame.
func (fs *FrameStore) Frame(pfn PFN) []byte {
	fs.check(pfn)
	if len(fs.data[pfn]) == 0 {
		fs.data[pfn] = make([]byte, PageSize)
	}
	return fs.data[pfn]
}

// Page returns pfn's contents as a page value: nil when the frame reads as
// zero, otherwise its bytes, which the caller must not modify.
func (fs *FrameStore) Page(pfn PFN) []byte {
	fs.check(pfn)
	if len(fs.data[pfn]) == 0 {
		return nil
	}
	return fs.data[pfn]
}

// Zero clears a frame (hardware-assist page zeroing). The frame gives up
// its bytes; it reads as zero until next written.
func (fs *FrameStore) Zero(pfn PFN) {
	fs.check(pfn)
	fs.data[pfn] = zeroFrame
}

// SetPage loads a page value into pfn: zeros for a nil page, otherwise a
// copy of page.
func (fs *FrameStore) SetPage(pfn PFN, page []byte) {
	if page == nil {
		fs.Zero(pfn)
		return
	}
	copy(fs.Frame(pfn), page)
}

// StoredBytes reports how many bytes of frame contents the store holds;
// frames that read as zero hold none.
func (fs *FrameStore) StoredBytes() int64 {
	var n int64
	for _, f := range fs.data {
		n += int64(len(f))
	}
	return n
}
