package vm

import "fmt"

// ProtectionDomain maps each valid stretch to a subset of {read, write,
// execute, meta}. Protection is carried out at stretch granularity; a
// domain executing in a protection domain holding the meta right on a
// stretch may modify protections and mappings on it.
type ProtectionDomain struct {
	id     uint32
	asn    uint16
	rights map[StretchID]Rights
}

// ID returns the protection domain identifier.
func (pd *ProtectionDomain) ID() uint32 { return pd.id }

// ASN returns the hardware address-space number backing this protection
// domain in the TLB.
func (pd *ProtectionDomain) ASN() uint16 { return pd.asn }

// RightsOn returns the rights this protection domain holds on a stretch.
func (pd *ProtectionDomain) RightsOn(sid StretchID) Rights { return pd.rights[sid] }

// setRights updates the mapping, detecting idempotent changes (the paper's
// protection scheme short-circuits them). It reports whether anything
// changed.
func (pd *ProtectionDomain) setRights(sid StretchID, r Rights) bool {
	if cur, ok := pd.rights[sid]; ok && cur == r || !ok && r == 0 {
		return false
	}
	if r == 0 {
		delete(pd.rights, sid)
	} else {
		pd.rights[sid] = r
	}
	return true
}

// pdAllocator hands out protection domains with unique ASNs.
type pdAllocator struct {
	nextID  uint32
	nextASN uint16
	pds     []*ProtectionDomain
}

func (a *pdAllocator) new() (*ProtectionDomain, error) {
	if a.nextASN == 0xFFFF {
		return nil, fmt.Errorf("vm: address space numbers exhausted")
	}
	pd := &ProtectionDomain{
		id:     a.nextID,
		asn:    a.nextASN,
		rights: make(map[StretchID]Rights),
	}
	a.nextID++
	a.nextASN++
	a.pds = append(a.pds, pd)
	return pd, nil
}

func (a *pdAllocator) remove(pd *ProtectionDomain) {
	for i := range a.pds {
		if a.pds[i] == pd {
			a.pds = append(a.pds[:i], a.pds[i+1:]...)
			return
		}
	}
}
