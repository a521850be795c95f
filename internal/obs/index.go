package obs

import "math/bits"

// The registry's metric index. A handle costs its own struct and little
// else: handles live in append-only slabs in creation order (the export
// order), each names itself with a compact series, and a lookup walks one
// domain's chain of handles of one kind. Nothing is copied as the index
// grows, so the thousands of per-domain metrics a cluster machine registers
// at boot allocate little beyond the handles themselves.

// series is a metric's identity inside its registry: interned (subsystem,
// name) and domain ids, and the index of the metric of the same kind that
// was registered before it in the same domain (-1 at the end of the chain).
type series struct {
	name, dom uint32
	prev      int32
}

// metricKind selects one of the registry's three handle slabs.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histKind
)

// domainMetrics is one interned domain: its name and the newest handle of
// each kind registered under it (-1 for none), the heads of its chains.
type domainMetrics struct {
	name string
	last [3]int32
}

// A slab's blocks double from 16 elements up to 256 and then stay at 256,
// so a small registry stays small and a large one wastes under a block.
const (
	slabFirstShift = 4
	slabMaxShift   = 8
	// slabRamp is how many elements the doubling blocks hold: 16+...+128.
	slabRamp = 1<<slabMaxShift - 1<<slabFirstShift
)

// slab is an append-only sequence whose elements never move, so a handle's
// address is fixed from the moment it is created.
type slab[T any] struct {
	blocks [][]T
	n      int32
}

// locate maps an element index to its block and offset.
func locate(i int32) (block, off int) {
	if i >= slabRamp {
		j := int(i - slabRamp)
		return slabMaxShift - slabFirstShift + j>>slabMaxShift, j & (1<<slabMaxShift - 1)
	}
	j := uint(i) + 1<<slabFirstShift
	block = bits.Len(j) - 1 - slabFirstShift
	return block, int(j - 1<<(block+slabFirstShift))
}

func (s *slab[T]) len() int32 { return s.n }

func (s *slab[T]) at(i int32) *T {
	b, off := locate(i)
	return &s.blocks[b][off]
}

// add appends a zero element and returns it with its index.
func (s *slab[T]) add() (*T, int32) {
	i := s.n
	b, off := locate(i)
	if b == len(s.blocks) {
		s.blocks = append(s.blocks, make([]T, 1<<min(b+slabFirstShift, slabMaxShift)))
	}
	s.n++
	return &s.blocks[b][off], i
}

// clone copies the slab's elements into fresh blocks.
func (s *slab[T]) clone() slab[T] {
	ns := slab[T]{blocks: make([][]T, len(s.blocks)), n: s.n}
	for b, blk := range s.blocks {
		ns.blocks[b] = append([]T(nil), blk...)
	}
	return ns
}

// intern returns the ids of a metric's (subsystem, name) and domain,
// assigning new ones on first sight.
func (r *Registry) intern(subsystem, name, domain string) (nid, did uint32) {
	nk := [2]string{subsystem, name}
	nid, ok := r.nameIDs[nk]
	if !ok {
		nid = uint32(len(r.names))
		r.nameIDs[nk] = nid
		r.names = append(r.names, nk)
	}
	did, ok = r.domIDs[domain]
	if !ok {
		did = uint32(len(r.doms))
		r.domIDs[domain] = did
		r.doms = append(r.doms, domainMetrics{name: domain, last: [3]int32{-1, -1, -1}})
	}
	return nid, did
}

// seriesAt returns the series of handle i of kind k.
func (r *Registry) seriesAt(k metricKind, i int32) *series {
	switch k {
	case counterKind:
		return &r.counters.at(i).series
	case gaugeKind:
		return &r.gauges.at(i).series
	default:
		return &r.hists.at(i).series
	}
}

// find returns the index of the kind-k handle named nid in domain did, or
// -1.
func (r *Registry) find(k metricKind, nid, did uint32) int32 {
	for i := r.doms[did].last[k]; i >= 0; {
		s := r.seriesAt(k, i)
		if s.name == nid {
			return i
		}
		i = s.prev
	}
	return -1
}

// lookup is find by name, creating no ids: -1 when the metric was never
// registered.
func (r *Registry) lookup(k metricKind, subsystem, name, domain string) int32 {
	nid, ok := r.nameIDs[[2]string{subsystem, name}]
	if !ok {
		return -1
	}
	did, ok := r.domIDs[domain]
	if !ok {
		return -1
	}
	return r.find(k, nid, did)
}

// link names the new kind-k handle i and puts it at the head of its
// domain's chain.
func (r *Registry) link(k metricKind, s *series, i int32, nid, did uint32) {
	*s = series{name: nid, dom: did, prev: r.doms[did].last[k]}
	r.doms[did].last[k] = i
}

// key returns the export key of a series.
func (r *Registry) key(s series) Key {
	n := r.names[s.name]
	return Key{Subsystem: n[0], Name: n[1], Domain: r.doms[s.dom].name}
}
