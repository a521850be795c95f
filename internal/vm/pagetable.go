package vm

import "nemesis/internal/mem"

// Attr carries the machine-dependent PTE attribute bits exposed through the
// low-level map interface. FOR/FOW (fault-on-read / fault-on-write) are the
// Alpha bits the implementation uses to emulate referenced and dirty bits:
// they are set by software and cleared by the PALcode DFault path, which in
// this model is the page-table walker itself.
type Attr struct {
	FOR bool
	FOW bool
}

// DefaultAttr is the attribute set used for fresh mappings: both fault bits
// armed so the first read marks Referenced and the first write marks Dirty.
func DefaultAttr() Attr { return Attr{FOR: true, FOW: true} }

// PTE is one page-table entry. Present entries exist for every page of
// every allocated stretch (the "NULL mappings" holding protection
// information); Valid entries additionally carry a physical frame.
type PTE struct {
	Present    bool
	Valid      bool
	PFN        mem.PFN
	SID        StretchID
	Attr       Attr
	Referenced bool
	Dirty      bool
	// Prot holds per-page protection override bits — the page-table
	// protection path. Effective rights on a page are the union of the
	// protection domain's stretch rights and these bits.
	Prot Rights
	// Width is the superpage width: this page was mapped as part of an
	// aligned block of 1<<Width pages backed by contiguous frames, which
	// the TLB may cover with a single wide entry. 0 = a normal page.
	Width uint8
}

// PageTable is the linear page table: conceptually an array over the whole
// virtual address space (the paper uses an 8 GB linear array mapped through
// a secondary table); here a sparse map with identical semantics. All
// lookups run real code whose simulated cost the cpu package charges.
type PageTable struct {
	entries map[VPN]*PTE
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable {
	return &PageTable{entries: make(map[VPN]*PTE)}
}

// Lookup returns the entry for vpn, or nil if the page is unallocated.
func (pt *PageTable) Lookup(vpn VPN) *PTE {
	return pt.entries[vpn]
}

// Insert creates a NULL (present, invalid) entry for vpn belonging to sid.
func (pt *PageTable) Insert(vpn VPN, sid StretchID) {
	pt.entries[vpn] = &PTE{Present: true, SID: sid}
}

// Delete removes the entry for vpn entirely (stretch destruction).
func (pt *PageTable) Delete(vpn VPN) {
	delete(pt.entries, vpn)
}

// Entries returns the number of present entries.
func (pt *PageTable) Entries() int { return len(pt.entries) }

// tlbEntry is one TLB slot, tagged with an address-space number so context
// switches need no flush. A slot may cover a superpage: an aligned block of
// 1<<width pages whose per-page PTEs are carried so the walker still sees
// the right frame and dirty bits ("multiple TLB page sizes" is one of the
// hardware features the paper faults other systems for hiding).
type tlbEntry struct {
	valid bool
	vpn   VPN // block base
	asn   uint16
	width uint8
	ptes  []*PTE  // 1<<width entries, indexed by vpn-base
	pte0  [1]*PTE // inline storage for width-0 entries (no fill alloc)
}

func (e *tlbEntry) covers(vpn VPN) bool {
	return e.valid && vpn >= e.vpn && vpn < e.vpn+VPN(1)<<e.width
}

// TLBSize matches the Alpha 21164 data TLB (64 entries, fully associative;
// replacement here is FIFO via a cursor, which is deterministic).
const TLBSize = 64

// TLB models the translation look-aside buffer. It exists so that the
// microbenchmarks exercise a realistic lookup path (hit/miss accounting)
// and so unmap must perform shootdown.
type TLB struct {
	slots  [TLBSize]tlbEntry
	cursor int
	// idx finds the valid width-0 slot for (vpn, asn) without scanning all
	// 64 slots; the slot array stays the ground truth. nSuper counts valid
	// superpage slots so the scan fallback runs only when one could hit.
	idx    map[tlbKey]int
	nSuper int
	hits   int64
	misses int64
}

// tlbKey indexes width-0 translations.
type tlbKey struct {
	vpn VPN
	asn uint16
}

// dropSlot invalidates slot i and unhooks it from the index bookkeeping.
func (t *TLB) dropSlot(i int) {
	e := &t.slots[i]
	if !e.valid {
		return
	}
	e.valid = false
	if e.width == 0 {
		k := tlbKey{e.vpn, e.asn}
		if j, ok := t.idx[k]; ok && j == i {
			delete(t.idx, k)
		}
	} else {
		t.nSuper--
	}
}

// Hits returns the hit count.
func (t *TLB) Hits() int64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() int64 { return t.misses }

// Lookup returns the cached PTE for (vpn, asn), if any. Superpage entries
// hit for every page they cover.
func (t *TLB) Lookup(vpn VPN, asn uint16) *PTE {
	if i, ok := t.idx[tlbKey{vpn, asn}]; ok {
		t.hits++
		return t.slots[i].ptes[0]
	}
	if t.nSuper > 0 {
		for i := range t.slots {
			e := &t.slots[i]
			if e.asn == asn && e.covers(vpn) {
				t.hits++
				return e.ptes[vpn-e.vpn]
			}
		}
	}
	t.misses++
	return nil
}

// Fill installs a normal (width 0) translation, evicting FIFO.
func (t *TLB) Fill(vpn VPN, asn uint16, pte *PTE) {
	if t.idx == nil {
		t.idx = make(map[tlbKey]int, TLBSize)
	}
	t.dropSlot(t.cursor)
	e := &t.slots[t.cursor]
	*e = tlbEntry{valid: true, vpn: vpn, asn: asn}
	e.pte0[0] = pte
	e.ptes = e.pte0[:1]
	t.idx[tlbKey{vpn, asn}] = t.cursor
	t.cursor = (t.cursor + 1) % TLBSize
}

// FillSuper installs a superpage translation covering 1<<width pages from
// base. ptes must hold the per-page entries in order.
func (t *TLB) FillSuper(base VPN, asn uint16, width uint8, ptes []*PTE) {
	t.dropSlot(t.cursor)
	t.slots[t.cursor] = tlbEntry{valid: true, vpn: base, asn: asn, width: width, ptes: ptes}
	t.nSuper++
	t.cursor = (t.cursor + 1) % TLBSize
}

// InvalidateVA removes all translations covering vpn (any ASN) — the
// shootdown unmap performs. A superpage entry containing the page is
// dropped whole.
func (t *TLB) InvalidateVA(vpn VPN) {
	for i := range t.slots {
		if t.slots[i].covers(vpn) {
			t.dropSlot(i)
		}
	}
}

// InvalidateASN removes all translations for one address-space number
// (protection-domain destruction).
func (t *TLB) InvalidateASN(asn uint16) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].asn == asn {
			t.dropSlot(i)
		}
	}
}

// Flush empties the TLB.
func (t *TLB) Flush() {
	for i := range t.slots {
		t.dropSlot(i)
	}
}
