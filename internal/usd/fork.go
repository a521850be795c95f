package usd

import (
	"fmt"

	"nemesis/internal/disk"
	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// Fork returns a deep copy of the USD on the forked simulator, disk and
// registry, plus a channel identity map (parent channel → forked channel) so
// holders of IO channels (swap files, pagers) can re-point themselves, and
// the sequence numbers of re-armed lax timers for the snapshot's event
// accounting.
//
// The service process cannot have its stack cloned, so the fork point must be
// an instant at which the loop is parked with nothing to do: no transaction
// in service and every request and completion FIFO empty. The forked USD
// respawns its loop, whose bootstrap pass re-derives the identical parked
// state — refresh at the fork instant is a no-op (the parent already granted
// any due allocation) and it re-parks on the same absolute period boundary.
// Lax accrual spans in progress are carried over exactly: the accrual start
// is copied and the settle timer is re-armed at its original (instant, seq).
func (u *USD) Fork(ns *sim.Simulator, nd *disk.Disk, r *obs.Registry) (*USD, map[*Channel]*Channel, []uint64, error) {
	if u.stopped {
		return nil, nil, nil, fmt.Errorf("usd: cannot fork a stopped USD")
	}
	core, am := u.core.Fork()
	nu := &USD{
		sim:           ns,
		disk:          nd,
		core:          core,
		clients:       make(map[string]*client, len(u.clients)),
		order:         append([]string(nil), u.order...),
		wake:          sim.NewCond(ns),
		Log:           u.Log.Clone(),
		Obs:           r,
		SlackEnabled:  u.SlackEnabled,
		LaxityEnabled: u.LaxityEnabled,
		FCFS:          u.FCFS,
	}
	chans := make(map[*Channel]*Channel, len(u.clients))
	var claimed []uint64
	for _, name := range u.order {
		cl := u.clients[name]
		if cl.inService {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with client %q in service", name)
		}
		if n := cl.ch.reqs.Len(); n != 0 {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with %d pending requests on %q", n, name)
		}
		if n := cl.ch.comps.Len(); n != 0 {
			return nil, nil, nil, fmt.Errorf("usd: cannot fork with %d undrained completions on %q", n, name)
		}
		nch := &Channel{
			name:   name,
			usd:    nu,
			reqs:   sim.NewQueue[*Request](ns, cl.ch.reqs.Cap()),
			comps:  sim.NewQueue[*Request](ns, cl.ch.comps.Cap()),
			closed: cl.ch.closed,
		}
		ncl := &client{
			ac:         am[cl.ac],
			ch:         nch,
			extents:    append([]Extent(nil), cl.extents...),
			accruing:   cl.accruing,
			worklessAt: cl.worklessAt,
			txns:       cl.txns,
			bytes:      cl.bytes,
			dropped:    cl.dropped,
		}
		ncl.settleFn = func() { nu.settleLax(ncl) }
		if ncl.accruing {
			at, seq, ok := cl.laxTimer.When()
			if !ok {
				return nil, nil, nil, fmt.Errorf("usd: client %q accruing lax with no live settle timer", name)
			}
			ncl.laxTimer = ns.RestoreAt(at, seq, ncl.settleFn)
			claimed = append(claimed, seq)
		}
		if nu.Obs != nil {
			ncl.hQueueWait = nu.Obs.Histogram("usd", "queue_wait", name)
			ncl.hService = nu.Obs.Histogram("usd", "service", name)
			ncl.cTxns = nu.Obs.Counter("usd", "txns", name)
			ncl.cBytes = nu.Obs.Counter("usd", "bytes", name)
		}
		nu.clients[name] = ncl
		chans[cl.ch] = nch
	}
	nu.proc = ns.Spawn("usd", nu.run)
	// If the parent loop is parked on a period boundary (WaitTimeout), the
	// respawned loop will re-derive the identical park — but its park event
	// would draw a fresh seq, flipping same-instant tie order against other
	// timers. Donate the parent park event's seq so the forked park sorts
	// exactly where the parent's does.
	if at, seq, ok := u.sim.ParkedWake(u.proc); ok {
		ns.DonateWakeSeq(nu.proc, at, seq)
	}
	return nu, chans, claimed, nil
}
