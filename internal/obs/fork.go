package obs

import (
	"fmt"
	"maps"
)

// Fork returns a deep copy of the registry reading time from now (the forked
// simulator's clock). Metric creation order, the finished-span ring, hop
// aggregates, crosstalk flags, the audit log and the attribution accounts are
// all copied exactly, so exports from the fork are byte-identical to exports
// the parent would have produced.
//
// Pointer identity is preserved: spanStats caches the very *Histogram
// values the histogram slab and hopHists hold, so the copy goes through an
// identity map. The span free list is not copied — it is a transparent
// allocation cache; a fork that records spans simply allocates fresh ones.
//
// Preconditions: no fault span may be open (an open span is referenced by a
// live fault in flight, which contradicts a quiesced fork point). Crosstalk
// monitors are not forked — their sample closures capture the parent world —
// so callers start any monitor after forking; a monitor timer pending at the
// fork point makes the snapshot's event accounting fail loudly.
func (r *Registry) Fork(now Clock) (*Registry, error) {
	if r == nil {
		return nil, nil
	}
	nr := &Registry{
		now:        now,
		counters:   r.counters.clone(),
		gauges:     r.gauges.clone(),
		hists:      r.hists.clone(),
		nameIDs:    maps.Clone(r.nameIDs),
		names:      append([][2]string(nil), r.names...),
		domIDs:     maps.Clone(r.domIDs),
		doms:       append([]domainMetrics(nil), r.doms...),
		hopHists:   make(map[hopKey]*Histogram, len(r.hopHists)),
		hopOrder:   append([]hopKey(nil), r.hopOrder...),
		spanStats:  make(map[spanKey]*spanStats, len(r.spanStats)),
		spanCap:    r.spanCap,
		spanHead:   r.spanHead,
		spanTotal:  r.spanTotal,
		flowBase:   r.flowBase,
		flowSeq:    r.flowSeq,
		flags:      append([]Flag(nil), r.flags...),
		audit:      append([]AuditEvent(nil), r.audit...),
		auditCap:   r.auditCap,
		auditHead:  r.auditHead,
		auditTotal: r.auditTotal,
	}
	for i := range nr.counters.len() {
		nr.counters.at(i).r = nr
	}
	for i := range nr.gauges.len() {
		nr.gauges.at(i).r = nr
	}
	hm := make(map[*Histogram]*Histogram, int(r.hists.len())+len(r.hopHists))
	rehome := func(nh *Histogram) {
		nh.r = nr
		if nh.counts != nil {
			c := *nh.counts
			nh.counts = &c
		}
	}
	for i := range nr.hists.len() {
		nh := nr.hists.at(i)
		rehome(nh)
		hm[r.hists.at(i)] = nh
	}
	cloneHist := func(h *Histogram) *Histogram {
		if h == nil {
			return nil
		}
		if nh, ok := hm[h]; ok {
			return nh
		}
		nh := new(Histogram)
		*nh = *h
		rehome(nh)
		hm[h] = nh
		return nh
	}
	for k, h := range r.hopHists {
		nr.hopHists[k] = cloneHist(h)
	}
	for k, ss := range r.spanStats {
		nss := &spanStats{e2e: cloneHist(ss.e2e), hops: make([]hopSlot, len(ss.hops))}
		for i, hs := range ss.hops {
			nss.hops[i] = hopSlot{name: hs.name, h: cloneHist(hs.h)}
		}
		nr.spanStats[k] = nss
	}
	if r.cEvicted != nil {
		nr.cEvicted = nr.LookupCounter("obs", "spans_evicted", "")
	}
	if r.cAuditEvicted != nil {
		nr.cAuditEvicted = nr.LookupCounter("obs", "audit_evicted", "")
	}
	nr.spans = make([]*Span, len(r.spans))
	for i, s := range r.spans {
		ns := &Span{
			reg:     nr,
			Domain:  s.Domain,
			Class:   s.Class,
			Thread:  s.Thread,
			Outcome: s.Outcome,
			Flow:    s.Flow,
			Start:   s.Start,
			End:     s.End,
			hops:    append([]Hop(nil), s.hops...),
			done:    s.done,
		}
		nr.spans[i] = ns
	}
	if r.attr != nil {
		na, err := r.attr.fork(now)
		if err != nil {
			return nil, err
		}
		nr.attr = na
	}
	return nr, nil
}

// fork deep-copies the attribution state machine. Every domain must be at
// rest: open fault spans belong to faults in flight and cannot be carried
// across a fork. CPU run/wait counters are copied as-is — the CPU scheduler's
// own fork preconditions guarantee they are zero at a valid fork point.
func (a *Attribution) fork(now Clock) (*Attribution, error) {
	na := &Attribution{
		now:     now,
		domains: make(map[string]*DomainAttr, len(a.domains)),
		order:   append([]string(nil), a.order...),
	}
	for name, d := range a.domains {
		if len(d.open) != 0 {
			return nil, fmt.Errorf("obs: cannot fork attribution: domain %q has %d open fault spans", name, len(d.open))
		}
		na.domains[name] = &DomainAttr{
			a:        na,
			name:     d.name,
			start:    d.start,
			since:    d.since,
			curState: d.curState,
			curHop:   d.curHop,
			running:  d.running,
			waiting:  d.waiting,
			killed:   d.killed,
			accounts: append([]AttrAccount(nil), d.accounts...),
		}
	}
	return na, nil
}
