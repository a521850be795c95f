package mem

import (
	"fmt"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// Fork returns a deep copy of the frame store. Touched frames are copied
// outright — frame contents are live mutable memory on both sides of a fork,
// so unlike disk chunks they cannot be shared copy-on-write without putting
// a check on every byte access. bytes reports how much was copied.
func (fs *FrameStore) Fork() (nfs *FrameStore, bytes int64) {
	nfs = &FrameStore{nframes: fs.nframes, data: make([][]byte, fs.nframes)}
	for i, f := range fs.data {
		if f != nil {
			nf := make([]byte, PageSize)
			copy(nf, f)
			nfs.data[i] = nf
			bytes += PageSize
		}
	}
	return nfs, bytes
}

// Fork returns a deep copy of the frame-state table.
func (rt *RamTab) Fork() *RamTab {
	return &RamTab{entries: append([]ramtabEntry(nil), rt.entries...)}
}

// SetHandler rebinds the client's revocation handler. Forks use it to point
// a copied client at the forked domain's handler instead of the parent's.
func (c *Client) SetHandler(h RevocationHandler) { c.handler = h }

// FreeOrder returns the PFNs of the global free list in FIFO order. A fork
// must preserve the list exactly — future allocations pop the same frames in
// the same order on both sides — and snapshot tests compare it element-wise.
func (fa *FramesAllocator) FreeOrder() []PFN {
	out := make([]PFN, 0, fa.nfree)
	for i := fa.freeHead; i >= 0; i = fa.nodes[i].next {
		out = append(out, PFN(i))
	}
	return out
}

// Fork returns a deep copy of the allocator over the forked store/ramtab,
// attached to the forked simulator and registry. Every client is copied —
// contract, allocation count, frame stack (including the stretch-driver VA
// bookkeeping) — and registered under the same domain ID, so
// fa.Fork(...).Lookup(id) finds the forked twin of fa.Lookup(id).
//
// Preconditions: no revocation round may be in flight (the fork point is a
// quiesced instant; a pending intrusive revocation holds a timer and an
// obligation on a specific victim, which cannot be replayed faithfully).
// The copied clients keep the parent's RevocationHandler pointers; the
// caller must SetHandler each one to its forked domain, and must rebind
// OnKill to the forked system.
func (fa *FramesAllocator) Fork(s *sim.Simulator, store *FrameStore, ramtab *RamTab, r *obs.Registry) (*FramesAllocator, error) {
	if fa.revoking {
		return nil, fmt.Errorf("mem: cannot fork with a revocation in flight")
	}
	for _, c := range fa.clients {
		if c.pendingK != 0 {
			return nil, fmt.Errorf("mem: cannot fork with a pending revocation against domain %d", c.domain)
		}
	}
	nfa := &FramesAllocator{
		sim:               s,
		store:             store,
		ramtab:            ramtab,
		nodes:             append([]freeNode(nil), fa.nodes...),
		freeHead:          fa.freeHead,
		freeTail:          fa.freeTail,
		colourHead:        append([]int32(nil), fa.colourHead...),
		colourTail:        append([]int32(nil), fa.colourTail...),
		ncolours:          fa.ncolours,
		nfree:             fa.nfree,
		freeBits:          append([]uint64(nil), fa.freeBits...),
		guaranteed:        fa.guaranteed,
		clients:           make(map[DomainID]*Client, len(fa.clients)),
		freed:             sim.NewCond(s),
		RevocationTimeout: fa.RevocationTimeout,
	}
	if r != nil {
		// r is the parent registry's fork, so it already holds the parent's
		// frames/free level and update instant: bind, do not re-Set.
		nfa.bindObs(r)
	}
	for id, c := range fa.clients {
		nc := &Client{
			fa:       nfa,
			domain:   c.domain,
			contract: c.contract,
			n:        c.n,
			stack:    FrameStack{entries: append([]StackEntry(nil), c.stack.entries...)},
			handler:  c.handler,
			killed:   c.killed,
			label:    c.label,
		}
		if nfa.obs != nil {
			nc.initTelemetry(nc.label)
		}
		nfa.clients[id] = nc
	}
	return nfa, nil
}
