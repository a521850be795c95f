package netswap

import (
	"math"
	"time"

	"nemesis/internal/obs"
	"nemesis/internal/sim"
	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// RemoteOptions tunes one client's RPC behaviour.
type RemoteOptions struct {
	// Window bounds the client's in-flight RPCs (pipelining): further
	// sends wait for a slot. Default 4.
	Window int
	// Timeout is the per-attempt reply deadline. It must comfortably
	// cover the server's disk service for a full write batch, or healthy
	// calls retransmit and the server does the work twice. Default 250 ms.
	Timeout time.Duration
	// MaxRetries bounds retransmissions per call; a negative value retries
	// forever (a domain that would rather stall than die). Default 8.
	// The zero value means the default; use a pointer-free sentinel of
	// 0 via DefaultRemoteOptions if 0 retries are really wanted.
	MaxRetries int
	// Backoff is the base retransmission delay, doubled per attempt
	// (capped at 64x). Default 10 ms.
	Backoff time.Duration
	// MaxBatch caps pages per write RPC; larger cleaning batches split
	// into multiple pipelined RPCs. Default 16.
	MaxBatch int
}

// DefaultRemoteOptions returns the defaults documented on RemoteOptions.
func DefaultRemoteOptions() RemoteOptions {
	return RemoteOptions{
		Window:     4,
		Timeout:    250 * time.Millisecond,
		MaxRetries: 8,
		Backoff:    10 * time.Millisecond,
		MaxBatch:   16,
	}
}

func (o *RemoteOptions) fillDefaults() {
	d := DefaultRemoteOptions()
	if o.Window < 1 {
		o.Window = d.Window
	}
	if o.Timeout <= 0 {
		o.Timeout = d.Timeout
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = d.MaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = d.Backoff
	}
	if o.MaxBatch < 1 {
		o.MaxBatch = d.MaxBatch
	}
}

// RemoteStats counts one client's RPC activity.
type RemoteStats struct {
	RPCs        int64 // completed calls (reply received)
	Retries     int64 // retransmissions after a timeout
	Timeouts    int64 // attempt deadlines that expired
	LateReplies int64 // replies for attempts already given up on
	Failures    int64 // calls that exhausted their retry budget
	PagesRead   int64
	PagesSent   int64
	MaxInflight int // high-water mark of the request window
}

// call tracks one RPC through timeouts and retries.
type call struct {
	req      *request
	rep      *reply
	err      error
	id       uint64   // current attempt's ID; 0 = not in flight
	attempt  int      // attempts so far
	deadline sim.Time // current attempt's timeout instant
	resendAt sim.Time // backoff gate for the next attempt
	sentAt   sim.Time // current attempt's send instant
}

// RemoteBacking pages to the remote swap server over the fabric's link. It
// implements stretchdrv.Backing: reads are single-page RPCs, cleaning batches
// are merged into multi-page write RPCs (split at MaxBatch and pipelined
// through the in-flight window). Every wait happens on the calling domain's
// own simulated process, so remote stalls never leak across the QoS
// firewall.
type RemoteBacking struct {
	fab    *Fabric
	client string
	opt    RemoteOptions

	nextID   uint64
	pending  map[uint64]*call
	inflight int
	wake     *sim.Cond

	remote map[vm.VPN]bool // pages with a current remote copy

	Stats RemoteStats

	cRPCs, cRetries, cTimeouts, cLate *obs.Counter
	gInflight                         *obs.Gauge
	hRTT                              *obs.Histogram
}

const timeNever = sim.Time(math.MaxInt64)

// newRemoteBacking is called by the Fabric, which owns routing.
func newRemoteBacking(fab *Fabric, client, domName string, opt RemoteOptions) *RemoteBacking {
	opt.fillDefaults()
	reg := fab.reg
	return &RemoteBacking{
		fab:       fab,
		client:    client,
		opt:       opt,
		pending:   make(map[uint64]*call),
		wake:      sim.NewCond(fab.s),
		remote:    make(map[vm.VPN]bool),
		cRPCs:     reg.Counter("netswap", "rpcs", domName),
		cRetries:  reg.Counter("netswap", "retries", domName),
		cTimeouts: reg.Counter("netswap", "timeouts", domName),
		cLate:     reg.Counter("netswap", "late_replies", domName),
		gInflight: reg.Gauge("netswap", "inflight", domName),
		hRTT:      reg.Histogram("netswap", "rtt", domName),
	}
}

// Name implements stretchdrv.Backing.
func (r *RemoteBacking) Name() string { return "remote" }

// Options returns the client's effective RPC options.
func (r *RemoteBacking) Options() RemoteOptions { return r.opt }

// HasCopy implements stretchdrv.Backing.
func (r *RemoteBacking) HasCopy(va vm.VA) bool { return r.remote[vm.PageOf(va)] }

// Invalidate marks va's remote copy stale (a newer copy lives elsewhere —
// the tiered backing's local fallback path). The server-side blok stays
// allocated and is reused on the next write of the same page.
func (r *RemoteBacking) Invalidate(va vm.VA) { delete(r.remote, vm.PageOf(va)) }

// deliver routes one arrived reply. Runs in scheduler context (link event).
func (r *RemoteBacking) deliver(rep *reply) {
	c, ok := r.pending[rep.ID]
	if !ok {
		r.Stats.LateReplies++ // timed-out attempt, or a duplicated frame
		r.cLate.Inc()
		return
	}
	delete(r.pending, rep.ID)
	c.id = 0
	r.inflight--
	r.gInflight.Set(int64(r.inflight))
	r.Stats.RPCs++
	r.cRPCs.Inc()
	r.hRTT.Observe(r.fab.s.Now().Sub(c.sentAt))
	if err := rep.err(); err != nil {
		c.err = err
	} else {
		c.rep = rep
	}
	r.wake.Broadcast()
}

// sendAttempt transmits the current attempt of c and arms its timeout.
func (r *RemoteBacking) sendAttempt(c *call) {
	r.nextID++
	c.id = r.nextID
	c.attempt++
	c.sentAt = r.fab.s.Now()
	c.deadline = c.sentAt.Add(r.opt.Timeout)
	req := *c.req // shallow copy so the retransmit carries its own ID
	req.ID = c.id
	r.pending[c.id] = c
	r.inflight++
	if r.inflight > r.Stats.MaxInflight {
		r.Stats.MaxInflight = r.inflight
	}
	r.gInflight.Set(int64(r.inflight))
	r.fab.toServer(&req)
}

// do drives a group of calls to completion from process p: it keeps up to
// Window attempts in flight (sharing the window with any concurrent calls on
// the same client), expires attempts at their deadlines, backs off
// exponentially between retries, and parks p whenever there is nothing to do
// but wait.
func (r *RemoteBacking) do(p *sim.Proc, calls []*call) error {
	for {
		now := r.fab.s.Now()
		live := 0
		next := timeNever
		for _, c := range calls {
			if c.rep != nil || c.err != nil {
				continue
			}
			live++
			if c.id != 0 && now >= c.deadline {
				// Attempt timed out: free the slot, decide on a retry.
				delete(r.pending, c.id)
				c.id = 0
				r.inflight--
				r.gInflight.Set(int64(r.inflight))
				r.Stats.Timeouts++
				r.cTimeouts.Inc()
				r.wake.Broadcast() // the freed slot may unblock a peer
				if r.opt.MaxRetries >= 0 && c.attempt > r.opt.MaxRetries {
					c.err = ErrRemoteTimeout
					r.Stats.Failures++
					live--
					continue
				}
				r.Stats.Retries++
				r.cRetries.Inc()
				shift := c.attempt - 1
				if shift > 6 {
					shift = 6
				}
				c.resendAt = now.Add(r.opt.Backoff << uint(shift))
			}
			if c.id == 0 && now >= c.resendAt && r.inflight < r.opt.Window {
				r.sendAttempt(c)
			}
			switch {
			case c.id != 0:
				if c.deadline < next {
					next = c.deadline
				}
			case c.resendAt > now:
				if c.resendAt < next {
					next = c.resendAt
				}
				// else: waiting for a window slot; a slot release
				// broadcasts the cond, no timer needed.
			}
		}
		if live == 0 {
			for _, c := range calls {
				if c.err != nil {
					return c.err
				}
			}
			return nil
		}
		if next == timeNever {
			r.wake.Wait(p)
		} else if d := next.Sub(r.fab.s.Now()); d > 0 {
			r.wake.WaitTimeout(p, d)
		}
	}
}

// ReadPage implements stretchdrv.Backing: one read RPC with retries. The
// fault span gains hops "net.out" (request wire + server queue, including
// any retries), "remote.store" (the server's disk service) and "net.back"
// (the reply wire) — net RTT versus remote disk service, exactly.
func (r *RemoteBacking) ReadPage(p *sim.Proc, va vm.VA, buf []byte, sp *obs.Span) error {
	sp.BeginHop("net.out")
	c := &call{req: &request{Client: r.client, Op: opRead, Flow: sp.EnsureFlow(), VPNs: []vm.VPN{vm.PageOf(va)}}}
	if err := r.do(p, []*call{c}); err != nil {
		return err
	}
	copy(buf, c.rep.Data)
	sp.SplitHop(c.rep.ServiceStart, "remote.store")
	sp.SplitHop(c.rep.ServiceEnd, "net.back")
	r.Stats.PagesRead++
	return nil
}

// WritePages implements stretchdrv.Backing: the batch is merged into
// multi-page write RPCs of up to MaxBatch pages each, pipelined through the
// in-flight window, and the pages are marked remote-current only when their
// RPC is acknowledged. Returns the server-side disk transaction count.
func (r *RemoteBacking) WritePages(p *sim.Proc, pages []stretchdrv.DirtyPage, sp *obs.Span) (int, error) {
	sp.BeginHop("net.out")
	flow := sp.EnsureFlow()
	var calls []*call
	for at := 0; at < len(pages); at += r.opt.MaxBatch {
		end := at + r.opt.MaxBatch
		if end > len(pages) {
			end = len(pages)
		}
		req := &request{Client: r.client, Op: opWrite, Flow: flow}
		for _, pg := range pages[at:end] {
			req.VPNs = append(req.VPNs, vm.PageOf(pg.VA))
			req.Data = append(req.Data, pg.Data...)
		}
		calls = append(calls, &call{req: req})
	}
	err := r.do(p, calls)
	txns := 0
	var last *reply
	for _, c := range calls {
		if c.rep == nil {
			continue
		}
		txns += c.rep.Txns
		for _, vpn := range c.req.VPNs {
			r.remote[vpn] = true
		}
		r.Stats.PagesSent += int64(len(c.req.VPNs))
		if last == nil || c.rep.ServiceEnd > last.ServiceEnd {
			last = c.rep
		}
	}
	if err != nil {
		return txns, err
	}
	if last != nil {
		sp.SplitHop(last.ServiceStart, "remote.store")
		sp.SplitHop(last.ServiceEnd, "net.back")
	}
	return txns, nil
}
