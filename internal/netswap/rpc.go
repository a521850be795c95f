package netswap

import (
	"errors"
	"fmt"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/vm"
)

// Errors surfaced by the remote paging protocol.
var (
	// ErrRemoteTimeout is returned when a call exhausts its retry budget
	// without a reply (a dead or partitioned server).
	ErrRemoteTimeout = errors.New("netswap: remote call timed out")
	// ErrRemote wraps a definitive error reply from the server (store
	// full, no copy); retrying cannot help.
	ErrRemote = errors.New("netswap: server error")
)

// op distinguishes RPC directions.
type op uint8

const (
	opRead op = iota
	opWrite
)

// request is one page-service RPC travelling client -> server. Reads carry a
// single VPN; writes carry a batch of VPNs with their page images (the
// "batched multi-page write merged into a single RPC" of the design).
type request struct {
	ID     uint64
	Client string
	Op     op
	// Flow is the originating fault span's cross-machine flow ID (zero when
	// the client fault is untraced). The server echoes it into its own
	// service span, so a merged cluster trace can link the two sides.
	Flow uint64
	VPNs []vm.VPN
	// Pages holds a write's page values, one per VPN: nil for a page of
	// zeros, which travels as a flag rather than as bytes. Pages itself
	// stays nil while every page in the batch is zero. A non-nil page is
	// the request's own copy: a retransmit or a late duplicate can reach
	// the server after the client has recycled the page it was cleaning.
	Pages [][]byte

	// ssp is the server-side service span, attached by Server.handle when
	// the server has a registry. It never crosses the wire: each delivered
	// attempt is its own copy of the request, so a retransmitted RPC opens
	// its own span — the server honestly does the work twice.
	ssp *obs.Span
}

// reply is the server's answer. ServiceStart/ServiceEnd bracket the remote
// store's disk service (on the shared simulated timeline), so the client can
// split its fault span into network RTT versus remote disk service exactly.
type reply struct {
	ID     uint64
	Client string
	Flow   uint64 // echoed from the request
	Op     op     // echoed from the request
	Err    string // "" = ok; definitive server-side failure otherwise
	// Page is a read's payload as a page value: nil for a page of zeros.
	// The client hands a non-nil page on to its caller as it is.
	Page []byte
	Txns int // disk transactions the server merged the batch into

	ServiceStart, ServiceEnd sim.Time
}

// rpcHeaderBytes approximates the on-wire framing overhead per message.
const rpcHeaderBytes = 64

// page returns the value of a write's i'th page.
func (r *request) page(i int) []byte {
	if r.Pages == nil {
		return nil
	}
	return r.Pages[i]
}

// wireSize returns the simulated frame size of a request. A write frame
// counts every page at full size, zeros included: the zero flag saves host
// memory, not simulated wire time.
func (r *request) wireSize() int {
	n := rpcHeaderBytes + 8*len(r.VPNs)
	if r.Op == opWrite {
		n += len(r.VPNs) * int(vm.PageSize)
	}
	return n
}

// wireSize returns the simulated frame size of a reply: a successful read
// carries one full page, zero or not.
func (r *reply) wireSize() int {
	if r.Op == opRead && r.Err == "" {
		return rpcHeaderBytes + int(vm.PageSize)
	}
	return rpcHeaderBytes
}

// err converts a reply's error string into a wrapped Go error.
func (r *reply) err() error {
	if r.Err == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrRemote, r.Err)
}
