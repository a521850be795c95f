package vm

import (
	"fmt"

	"nemesis/internal/mem"
)

// ForkMaps carries the identity maps a translation-system fork produces:
// for every parent-side object, its forked twin. Higher layers use them to
// re-point their own copied state (stretch drivers hold *Stretch and *PTE,
// domains hold *ProtectionDomain) at the forked world.
type ForkMaps struct {
	PTE     map[*PTE]*PTE
	PD      map[*ProtectionDomain]*ProtectionDomain
	Stretch map[*Stretch]*Stretch
}

// Fork returns a deep copy of the translation system over the forked
// ramtab: page table (linear or guarded) with every PTE copied, TLB with
// its slots re-pointed at the copied PTEs (tags, FIFO cursor and hit/miss
// counters preserved), all protection domains with their rights maps, and
// the stretch allocator with every stretch. The returned maps let callers
// translate parent pointers to forked ones.
func (ts *TranslationSystem) Fork(ramtab *mem.RamTab) (*TranslationSystem, *ForkMaps, error) {
	m := &ForkMaps{
		PTE:     make(map[*PTE]*PTE),
		PD:      make(map[*ProtectionDomain]*ProtectionDomain, len(ts.pds.pds)),
		Stretch: make(map[*Stretch]*Stretch),
	}

	var table Table
	switch pt := ts.pt.(type) {
	case *PageTable:
		table = pt.fork(m.PTE)
	case *GuardedPageTable:
		table = pt.fork(m.PTE)
	default:
		return nil, nil, fmt.Errorf("vm: cannot fork page table of type %T", ts.pt)
	}

	nts := &TranslationSystem{
		pt:     table,
		tlb:    ts.tlb.fork(m.PTE),
		ramtab: ramtab,
	}

	// Protection domains.
	nts.pds.nextID = ts.pds.nextID
	nts.pds.nextASN = ts.pds.nextASN
	nts.pds.pds = make([]*ProtectionDomain, len(ts.pds.pds))
	for i, pd := range ts.pds.pds {
		npd := &ProtectionDomain{
			id:     pd.id,
			asn:    pd.asn,
			rights: make(map[StretchID]Rights, len(pd.rights)),
		}
		for sid, r := range pd.rights {
			npd.rights[sid] = r
		}
		nts.pds.pds[i] = npd
		m.PD[pd] = npd
	}

	// Stretch allocator.
	if sa := ts.stretches; sa != nil {
		nsa := &StretchAllocator{
			ts:     nts,
			nextID: sa.nextID,
			byBase: make([]*Stretch, len(sa.byBase)),
			low:    sa.low,
			high:   sa.high,
			next:   sa.next,
		}
		for i, st := range sa.byBase {
			nst := &Stretch{id: st.id, base: st.base, size: st.size, owner: st.owner}
			nsa.byBase[i] = nst
			m.Stretch[st] = nst
		}
		nts.stretches = nsa
	}
	return nts, m, nil
}

// fork deep-copies the linear page table, recording each copied PTE in m.
func (pt *PageTable) fork(m map[*PTE]*PTE) *PageTable {
	npt := &PageTable{entries: make(map[VPN]*PTE, len(pt.entries))}
	for vpn, pte := range pt.entries {
		np := *pte
		npt.entries[vpn] = &np
		m[pte] = &np
	}
	return npt
}

// fork deep-copies the guarded page table, recording each copied PTE in m.
func (g *GuardedPageTable) fork(m map[*PTE]*PTE) *GuardedPageTable {
	return &GuardedPageTable{root: forkGPTNode(g.root, m), entries: g.entries}
}

func forkGPTNode(n *gptNode, m map[*PTE]*PTE) *gptNode {
	nn := &gptNode{guard: append([]byte(nil), n.guard...)}
	if n.pte != nil {
		np := *n.pte
		nn.pte = &np
		m[n.pte] = &np
	}
	for i, c := range n.slots {
		if c != nil {
			nn.slots[i] = forkGPTNode(c, m)
		}
	}
	return nn
}

// fork copies the TLB, re-pointing cached translations at the forked PTEs.
// Slot order, the FIFO cursor and the hit/miss counters are preserved so
// post-fork lookup behaviour (and its charged cost) is identical.
func (t *TLB) fork(m map[*PTE]*PTE) *TLB {
	nt := &TLB{cursor: t.cursor, nSuper: t.nSuper, hits: t.hits, misses: t.misses}
	if t.idx != nil {
		nt.idx = make(map[tlbKey]int, len(t.idx))
		for k, v := range t.idx {
			nt.idx[k] = v
		}
	}
	for i := range t.slots {
		e := &t.slots[i]
		ne := &nt.slots[i]
		*ne = tlbEntry{valid: e.valid, vpn: e.vpn, asn: e.asn, width: e.width}
		if !e.valid {
			continue
		}
		if e.width == 0 {
			ne.pte0[0] = m[e.ptes[0]]
			ne.ptes = ne.pte0[:1]
		} else {
			ne.ptes = make([]*PTE, len(e.ptes))
			for j, p := range e.ptes {
				ne.ptes[j] = m[p]
			}
		}
	}
	return nt
}
