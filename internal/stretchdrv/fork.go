package stretchdrv

import (
	"fmt"

	"nemesis/internal/domain"
	"nemesis/internal/sfs"
	"nemesis/internal/vm"
)

// This file implements driver forking: deep copies of the pager machinery
// re-pointed at a forked world. Drivers are forked after the domain shell
// exists (they need the forked *domain.Domain for their base) and before the
// forked domain runs; the core snapshot orchestrator drives the order. All
// pure data structures — policies, the blok bitmap, the per-page swap records
// — are copied exactly, so a forked pager makes the same victim choices, the
// same blok allocations and the same disk transactions the parent would.
// Transient free lists (page buffers, cleaning batches, write scratches) fork
// empty: they are allocation caches with no simulation-visible state.

// clonePolicy deep-copies a replacement policy, preserving its exact
// eviction order (and for clock, the hand position).
func clonePolicy(p ReplacementPolicy) (ReplacementPolicy, error) {
	switch pol := p.(type) {
	case *fifoPolicy:
		return &fifoPolicy{q: append([]vm.VA(nil), pol.q...)}, nil
	case *secondChancePolicy:
		return &secondChancePolicy{q: append([]vm.VA(nil), pol.q...)}, nil
	case *clockPolicy:
		return &clockPolicy{ring: append([]vm.VA(nil), pol.ring...), hand: pol.hand}, nil
	default:
		return nil, fmt.Errorf("stretchdrv: cannot fork replacement policy %T", p)
	}
}

// fork deep-copies the blok bitmap: every node of the linked list, with the
// hint re-pointed at the copied node covering the same range.
func (a *BlokAllocator) fork() *BlokAllocator {
	na := &BlokAllocator{blokBlocks: a.blokBlocks, total: a.total}
	var tail *bitmapNode
	for node := a.head; node != nil; node = node.next {
		nn := &bitmapNode{base: node.base, bits: append([]uint64(nil), node.bits...), nfree: node.nfree}
		if tail == nil {
			na.head = nn
		} else {
			tail.next = nn
		}
		tail = nn
		if a.hint == node {
			na.hint = nn
		}
	}
	if na.hint == nil {
		na.hint = na.head
	}
	return na
}

// Fork returns a deep copy of the swap backing over the forked swap file.
// files is the identity map sfs.Fork produced.
func (b *SwapBacking) Fork(files map[*sfs.SwapFile]*sfs.SwapFile) (*SwapBacking, error) {
	nf := files[b.swap]
	if nf == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of swap file %q", b.swap.Name())
	}
	nb := &SwapBacking{
		swap:  nf,
		blok:  b.blok.fork(),
		pages: make(map[vm.VPN]*pageInfo, len(b.pages)),
	}
	for vpn, pi := range b.pages {
		nb.pages[vpn] = &pageInfo{blok: pi.blok, onDisk: pi.onDisk}
	}
	return nb, nil
}

// Fork returns a copy of the mapped-file backing over the forked file.
func (b *MappedBacking) Fork(files map[*sfs.SwapFile]*sfs.SwapFile) (*MappedBacking, error) {
	nf := files[b.file]
	if nf == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of mapped file %q", b.file.Name())
	}
	return &MappedBacking{file: nf, base: b.base}, nil
}

// fork builds the engine copy for a forked driver: forked domain, remapped
// stretch, cloned policy, the given (already forked) backing, the same
// writeback policy value (writeback policies are stateless), copied stats,
// and telemetry handles re-derived from the forked registry — Counter is
// get-or-create, so the handles attach to the copied counter values.
func (e *Engine) fork(ndom *domain.Domain, m *vm.ForkMaps, backing Backing) (*Engine, error) {
	nst := m.Stretch[e.st]
	if nst == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of stretch %d", e.st.ID())
	}
	policy, err := clonePolicy(e.policy)
	if err != nil {
		return nil, err
	}
	ne := &Engine{
		base:      base{dom: ndom},
		name:      e.name,
		st:        nst,
		policy:    policy,
		backing:   backing,
		writeback: e.writeback,
		cluster:   e.cluster,
		Stats:     e.Stats,
	}
	if r := ndom.Env().Obs; r != nil {
		ne.cPageIns = r.Counter("driver", "pageins", ndom.Name())
		ne.cPageOuts = r.Counter("driver", "pageouts", ndom.Name())
		ne.cEvictions = r.Counter("driver", "evictions", ndom.Name())
		ne.cPolicyEvict = r.Counter("pager", "evictions_"+policy.Name(), ndom.Name())
		ne.cVictimClean = r.Counter("pager", "victims_clean", ndom.Name())
		ne.cVictimDirty = r.Counter("pager", "victims_dirty", ndom.Name())
		ne.cCleanedPages = r.Counter("pager", "cleaned_pages", ndom.Name())
		ne.cCleanBatches = r.Counter("pager", "clean_batches", ndom.Name())
		ne.cSpares = r.Counter("pager", "spares_"+policy.Name(), ndom.Name())
	}
	return ne, nil
}

// Fork returns a deep copy of the paged driver bound into the forked domain.
// Only the local swap backing is forkable; remote and tiered backings hold
// netswap machinery (link procs, RPC windows) that a snapshot does not carry
// — create those stretches after forking instead.
func (d *Paged) Fork(ndom *domain.Domain, m *vm.ForkMaps, files map[*sfs.SwapFile]*sfs.SwapFile) (*Paged, error) {
	if d.swap == nil {
		return nil, fmt.Errorf("stretchdrv: cannot fork paged driver with %s backing", d.Engine.backing.Name())
	}
	nb, err := d.swap.Fork(files)
	if err != nil {
		return nil, err
	}
	ne, err := d.Engine.fork(ndom, m, nb)
	if err != nil {
		return nil, err
	}
	nd := &Paged{Engine: ne, swap: nb}
	ndom.Bind(ne.st, nd)
	return nd, nil
}

// Fork returns a deep copy of the mapped-file driver bound into the forked
// domain.
func (d *Mapped) Fork(ndom *domain.Domain, m *vm.ForkMaps, files map[*sfs.SwapFile]*sfs.SwapFile) (*Mapped, error) {
	nb, err := d.backing.Fork(files)
	if err != nil {
		return nil, err
	}
	ne, err := d.Engine.fork(ndom, m, nb)
	if err != nil {
		return nil, err
	}
	nd := &Mapped{Engine: ne, backing: nb}
	ndom.Bind(ne.st, nd)
	return nd, nil
}

// Fork returns a deep copy of the physical driver bound into the forked
// domain.
func (d *Physical) Fork(ndom *domain.Domain, m *vm.ForkMaps) (*Physical, error) {
	ne, err := d.Engine.fork(ndom, m, nil)
	if err != nil {
		return nil, err
	}
	nd := &Physical{Engine: ne}
	ndom.Bind(ne.st, nd)
	return nd, nil
}

// Fork returns a copy of the nailed driver bound into the forked domain.
// Nailed frames are pinned mappings with no mutable driver state; the page
// tables and frame stacks carry everything.
func (n *Nailed) Fork(ndom *domain.Domain, m *vm.ForkMaps) (*Nailed, error) {
	nst := m.Stretch[n.st]
	if nst == nil {
		return nil, fmt.Errorf("stretchdrv: no forked twin of stretch %d", n.st.ID())
	}
	nd := &Nailed{base: base{dom: ndom}, st: nst}
	ndom.Bind(nst, nd)
	return nd, nil
}
