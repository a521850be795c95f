// Package atropos implements the accounting core of the Atropos scheduling
// algorithm used throughout Nemesis (the paper applies it both to CPU time
// and — in the USD — to disk time). It is an earliest-deadline-first
// algorithm with implicit deadlines: each client holds a QoS tuple
// (p, s, x, l) and is periodically allocated s time units with a deadline of
// period-start + p. Time actually consumed (including "lax" time — see
// below) is charged against the allocation; a client whose remaining time is
// exhausted waits for its next periodic allocation.
//
// Two refinements from the paper:
//
//   - Laxity (l): a client with no pending work may remain on the runnable
//     queue for up to l of continuous idleness, charged as if it were
//     working. This fixes the "short-block" problem for clients — like
//     pagers — that cannot pipeline requests.
//
//   - Roll-over accounting: a client is allowed to finish a transaction it
//     started with a reasonable amount of time remaining; if the transaction
//     overruns, the negative balance counts against the next allocation, so
//     a client cannot deterministically exceed its guarantee.
//
// The package is pure accounting: it never blocks and never reads a clock.
// Drivers (internal/usd, internal/cpu) own the event loop and tell the core
// what happened and when.
//
// # Indexed core
//
// The core scales to thousands of clients: picks and refreshes run off
// (deadline, admission) min-heaps instead of scanning the client slice.
// Heap entries are invalidated lazily — a state change never touches the
// heaps; stale entries are recognised and dropped when they surface at the
// top. Dropping is safe because, within one deadline epoch, eligibility only
// ever decreases: remain only shrinks outside Refresh, removal is permanent,
// and Refresh — the sole operation that restores a client — always advances
// its deadline and pushes a fresh entry. One consequence: MinRemain must be
// configured before the core starts operating (lowering it mid-flight could
// resurrect entries that were already dropped).
//
// Drivers that track work availability per client (internal/cpu) should
// mirror it through SetReady and pick via PickEDFReady/PickSlackReady, which
// consider only ready clients; the generic PickEDFWith/PickSlack remain for
// drivers with few clients (internal/usd).
//
// ReferenceCore (reference_test.go) retains the original linear implementation;
// the package tests co-run both over seeded random contract sets to pin the
// decisions of this implementation to the reference, operation by operation.
package atropos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nemesis/internal/sim"
)

// Errors returned by Core.
var (
	ErrOvercommitted = errors.New("atropos: admission would exceed capacity")
	ErrBadQoS        = errors.New("atropos: invalid QoS parameters")
	ErrDuplicate     = errors.New("atropos: client name already registered")
	ErrUnknown       = errors.New("atropos: unknown client")
)

// State is a client's scheduling state.
type State uint8

const (
	// Runnable clients compete for service under EDF.
	Runnable State = iota
	// Waiting clients have exhausted their slice and await their next
	// periodic allocation.
	Waiting
	// Idle clients exhausted their laxity with no work pending; they are
	// ignored until their next periodic allocation (paper §6.7).
	Idle
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Waiting:
		return "waiting"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// QoS is the (p, s, x, l) tuple from the paper: the client may perform
// transactions totalling at most S within every P, X marks eligibility for
// slack time, and L is the laxity value.
type QoS struct {
	P time.Duration // period
	S time.Duration // slice
	X bool          // eligible for slack time
	L time.Duration // laxity
}

// Share returns S/P as a fraction of the resource.
func (q QoS) Share() float64 { return float64(q.S) / float64(q.P) }

func (q QoS) validate() error {
	if q.P <= 0 || q.S <= 0 || q.S > q.P || q.L < 0 {
		return fmt.Errorf("%w: p=%v s=%v l=%v", ErrBadQoS, q.P, q.S, q.L)
	}
	return nil
}

// Client is one contracted consumer of the resource.
type Client struct {
	name string
	qos  QoS

	state       State
	remain      time.Duration // time left in the current period; may go negative
	deadline    sim.Time      // end of current period == next allocation instant
	periodStart sim.Time
	laxSpan     time.Duration // continuous workless time charged so far
	allocations int64         // periodic allocations granted
	charged     time.Duration // total time charged (work + lax)
	laxCharged  time.Duration // total lax time charged

	// Index bookkeeping (owned by Core).
	seq      uint64 // admission sequence number; EDF tie-break key
	idx      int    // position in Core.clients (slack round-robin order)
	removed  bool   // invalidates any heap entries still referencing c
	ready    bool   // driver-reported work availability (SetReady)
	readyGen uint32 // bumped on every readiness flip; invalidates readyq entries
	readyPos int    // position in Core.readyList, -1 when not ready
}

// Name returns the client's registration name.
func (c *Client) Name() string { return c.name }

// QoS returns the client's contract.
func (c *Client) QoS() QoS { return c.qos }

// State returns the scheduling state.
func (c *Client) State() State { return c.state }

// Remain returns the unconsumed allocation for the current period.
func (c *Client) Remain() time.Duration { return c.remain }

// Deadline returns the end of the client's current period.
func (c *Client) Deadline() sim.Time { return c.deadline }

// LaxBudget returns how much longer the client may stay runnable without
// pending work before being marked idle.
func (c *Client) LaxBudget() time.Duration {
	if b := c.qos.L - c.laxSpan; b > 0 {
		return b
	}
	return 0
}

// Allocations returns the number of periodic allocations granted so far.
func (c *Client) Allocations() int64 { return c.allocations }

// Charged returns total time charged to the client (work plus lax).
func (c *Client) Charged() time.Duration { return c.charged }

// LaxCharged returns total lax time charged to the client.
func (c *Client) LaxCharged() time.Duration { return c.laxCharged }

// qentry is a lazily-invalidated heap entry. An entry speaks for its client
// only while the client still matches the snapshot taken at push time: the
// deadline must be unchanged (Refresh advances it and pushes a replacement)
// and, for readyq entries, the readiness generation must match.
type qentry struct {
	deadline sim.Time
	seq      uint64
	gen      uint32 // readiness generation (readyq entries only)
	c        *Client
}

// entryHeap is a binary min-heap ordered by (deadline, admission sequence) —
// the same total order the linear scans realise via strict-< with
// admission-order iteration.
type entryHeap []qentry

func entryLess(a, b qentry) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.seq < b.seq
}

func (h *entryHeap) push(e qentry) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *entryHeap) pop() qentry {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = qentry{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && entryLess(q[l], q[min]) {
			min = l
		}
		if r < n && entryLess(q[r], q[min]) {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// Core tracks a set of clients sharing one resource.
type Core struct {
	clients    []*Client
	byName     map[string]*Client
	capacity   float64 // admissible sum of S/P, normally 1.0
	contracted float64 // running sum of admitted shares
	slackIdx   int     // round-robin cursor for slack distribution
	nextSeq    uint64

	runq      entryHeap // runnable clients by (deadline, seq); lazy
	relq      entryHeap // one release-time entry per live client; lazy
	readyq    entryHeap // ready ∧ runnable clients by (deadline, seq); lazy
	readyList []*Client // unordered set of ready clients (PickSlackReady)
	scratch   []qentry  // PickEDFWith spill buffer, reused across calls

	// MinRemain is the "reasonable amount of time remaining" threshold of
	// the roll-over scheme: a client may start a transaction while
	// remain > MinRemain, even if the transaction may overrun. Zero means
	// any positive remainder suffices (pure roll-over as described in the
	// paper's experiments). Configure before the first Admit; see the
	// package comment on lazy invalidation.
	MinRemain time.Duration
}

// NewCore returns a Core admitting contracts totalling at most capacity
// (1.0 = the whole resource).
func NewCore(capacity float64) *Core {
	if capacity <= 0 {
		capacity = 1.0
	}
	return &Core{capacity: capacity, byName: make(map[string]*Client)}
}

// Contracted returns the sum of admitted shares.
func (co *Core) Contracted() float64 { return co.contracted }

// recontract recomputes the admitted-share sum by the same left fold the
// linear implementation used, keeping the float result bit-identical.
func (co *Core) recontract() {
	total := 0.0
	for _, c := range co.clients {
		total += c.qos.Share()
	}
	co.contracted = total
}

// Clients returns the registered clients in admission order.
func (co *Core) Clients() []*Client { return co.clients }

// Lookup returns the client with the given name, or nil.
func (co *Core) Lookup(name string) *Client { return co.byName[name] }

// Admit registers a client with the given contract, starting its first
// period at now. Admission fails if the aggregate share would exceed
// capacity (the same admission test the frames allocator applies to
// guaranteed frames).
func (co *Core) Admit(name string, q QoS, now sim.Time) (*Client, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	if co.Lookup(name) != nil {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	if co.contracted+q.Share() > co.capacity+1e-9 {
		return nil, fmt.Errorf("%w: %.3f + %.3f > %.3f", ErrOvercommitted, co.contracted, q.Share(), co.capacity)
	}
	c := &Client{
		name:        name,
		qos:         q,
		state:       Runnable,
		remain:      q.S,
		periodStart: now,
		deadline:    now.Add(q.P),
		allocations: 1,
		seq:         co.nextSeq,
		idx:         len(co.clients),
		readyPos:    -1,
	}
	co.nextSeq++
	co.clients = append(co.clients, c)
	co.byName[name] = c
	co.contracted += q.Share()
	co.relq.push(qentry{deadline: c.deadline, seq: c.seq, c: c})
	if co.runnable(c) {
		co.runq.push(qentry{deadline: c.deadline, seq: c.seq, c: c})
	}
	return c, nil
}

// Remove deregisters a client. Heap entries referencing it go stale and are
// dropped lazily.
func (co *Core) Remove(name string) error {
	c := co.byName[name]
	if c == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	c.removed = true
	delete(co.byName, name)
	i := c.idx
	co.clients = append(co.clients[:i], co.clients[i+1:]...)
	for ; i < len(co.clients); i++ {
		co.clients[i].idx = i
	}
	if c.readyPos >= 0 {
		co.readyRemove(c)
	}
	co.recontract()
	return nil
}

// Refresh grants periodic allocations to every client whose deadline has
// arrived, returning the clients that received one (in admission order).
// Unused positive balance does not accumulate; negative balance (roll-over)
// counts against the new slice.
func (co *Core) Refresh(now sim.Time) []*Client {
	var granted []*Client
	for len(co.relq) > 0 {
		e := &co.relq[0]
		c := e.c
		if c.removed || c.deadline != e.deadline {
			co.relq.pop()
			continue
		}
		if e.deadline > now {
			break
		}
		co.relq.pop()
		// Catch up period boundaries without stacking slices.
		for c.deadline <= now {
			c.periodStart = c.deadline
			c.deadline = c.deadline.Add(c.qos.P)
		}
		carry := time.Duration(0)
		if c.remain < 0 {
			carry = c.remain
		}
		c.remain = c.qos.S + carry
		c.laxSpan = 0
		c.allocations++
		if c.state == Waiting || c.state == Idle {
			c.state = Runnable
		}
		co.relq.push(qentry{deadline: c.deadline, seq: c.seq, c: c})
		if co.runnable(c) {
			co.runq.push(qentry{deadline: c.deadline, seq: c.seq, c: c})
			if c.ready {
				co.readyq.push(qentry{deadline: c.deadline, seq: c.seq, gen: c.readyGen, c: c})
			}
		}
		granted = append(granted, c)
	}
	if len(granted) > 1 {
		// The heap yields (deadline, seq) order; the contract is admission
		// order. Deadlines mostly coincide, so this is a near-no-op sort.
		sort.Slice(granted, func(i, j int) bool { return granted[i].seq < granted[j].seq })
	}
	return granted
}

// runnable reports whether c may be given service now.
func (co *Core) runnable(c *Client) bool {
	return c.state == Runnable && c.remain > co.MinRemain
}

// runValid reports whether a runq/readyq entry still speaks for a
// currently-eligible client.
func (co *Core) runValid(e *qentry) bool {
	c := e.c
	return !c.removed && c.deadline == e.deadline && co.runnable(c)
}

// PickEDF returns the runnable client with the earliest deadline, or nil.
// Ties break by admission order, which is deterministic.
func (co *Core) PickEDF() *Client {
	for len(co.runq) > 0 {
		e := &co.runq[0]
		if co.runValid(e) {
			return e.c
		}
		co.runq.pop()
	}
	return nil
}

// PickEDFWith returns the earliest-deadline runnable client satisfying pred.
// Entries failing only pred are kept (pred may pass on a later call); stale
// entries are dropped. Cost grows with the number of runnable clients pred
// rejects — drivers with many clients should maintain readiness through
// SetReady and use PickEDFReady instead.
func (co *Core) PickEDFWith(pred func(*Client) bool) *Client {
	co.scratch = co.scratch[:0]
	var pick *Client
	for len(co.runq) > 0 {
		e := &co.runq[0]
		if !co.runValid(e) {
			co.runq.pop()
			continue
		}
		if pred(e.c) {
			pick = e.c
			break
		}
		co.scratch = append(co.scratch, co.runq.pop())
	}
	for _, e := range co.scratch {
		co.runq.push(e)
	}
	return pick
}

// SetReady records whether the driver has work queued for c. Readiness feeds
// PickEDFReady and PickSlackReady; it is the indexed replacement for passing
// a has-work predicate to every pick.
func (co *Core) SetReady(c *Client, ready bool) {
	if c.ready == ready || c.removed {
		return
	}
	c.ready = ready
	c.readyGen++
	if ready {
		c.readyPos = len(co.readyList)
		co.readyList = append(co.readyList, c)
		if co.runnable(c) {
			co.readyq.push(qentry{deadline: c.deadline, seq: c.seq, gen: c.readyGen, c: c})
		}
		return
	}
	co.readyRemove(c)
}

// readyRemove drops c from the unordered ready list by swap-delete.
func (co *Core) readyRemove(c *Client) {
	last := len(co.readyList) - 1
	moved := co.readyList[last]
	co.readyList[c.readyPos] = moved
	moved.readyPos = c.readyPos
	co.readyList[last] = nil
	co.readyList = co.readyList[:last]
	c.readyPos = -1
}

// PickEDFReady returns the earliest-deadline runnable client marked ready,
// equivalent to PickEDFWith with a ready predicate but O(log n).
func (co *Core) PickEDFReady() *Client {
	for len(co.readyq) > 0 {
		e := &co.readyq[0]
		if co.runValid(e) && e.c.ready && e.c.readyGen == e.gen {
			return e.c
		}
		co.readyq.pop()
	}
	return nil
}

// PickSlack returns the next slack-eligible (x=true) client satisfying pred,
// distributing slack round-robin regardless of remaining allocation. Clients
// in any state may receive slack except those the driver filters out.
func (co *Core) PickSlack(pred func(*Client) bool) *Client {
	n := len(co.clients)
	for i := 0; i < n; i++ {
		c := co.clients[(co.slackIdx+i)%n]
		if c.qos.X && pred(c) {
			co.slackIdx = (co.slackIdx + i + 1) % n
			return c
		}
	}
	return nil
}

// PickSlackReady is PickSlack with a ready predicate, scanning only the
// ready set: it returns the slack-eligible ready client closest after the
// round-robin cursor and advances the cursor past it — exactly the client
// the linear scan would have stopped at.
func (co *Core) PickSlackReady() *Client {
	n := len(co.clients)
	if n == 0 {
		return nil
	}
	var best *Client
	bestDist := n
	for _, c := range co.readyList {
		if !c.qos.X {
			continue
		}
		d := (c.idx - co.slackIdx) % n
		if d < 0 {
			d += n
		}
		if d < bestDist {
			bestDist = d
			best = c
		}
	}
	if best == nil {
		return nil
	}
	co.slackIdx = (best.idx + 1) % n
	return best
}

// Charge debits d of real service time from c. If the balance reaches zero
// or below (a roll-over overrun), the client waits for its next allocation.
func (co *Core) Charge(c *Client, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxSpan = 0
	if c.remain <= 0 {
		c.state = Waiting
	}
}

// ChargeLax debits d of lax (workless runnable) time from c. Exhausting the
// slice sends the client to Waiting; exhausting the laxity with slice
// remaining parks it Idle until the next allocation.
func (co *Core) ChargeLax(c *Client, d time.Duration) {
	c.remain -= d
	c.charged += d
	c.laxCharged += d
	c.laxSpan += d
	switch {
	case c.remain <= 0:
		c.state = Waiting
	case c.laxSpan >= c.qos.L:
		c.state = Idle
	}
}

// NoteWork resets c's continuous lax span: pending work has arrived. An Idle
// client stays idle (the paper ignores it until its next allocation).
func (co *Core) NoteWork(c *Client) { c.laxSpan = 0 }

// Idle parks a runnable client until its next allocation without charging
// it — the behaviour of the early USD scheduler the paper describes, used
// when the laxity mechanism is disabled.
func (co *Core) Idle(c *Client) {
	if c.state == Runnable {
		c.state = Idle
	}
}

// NextBoundary returns the earliest deadline over all clients — the next
// instant at which Refresh will grant an allocation — or ok=false if there
// are no clients.
func (co *Core) NextBoundary() (sim.Time, bool) {
	for len(co.relq) > 0 {
		e := &co.relq[0]
		if !e.c.removed && e.c.deadline == e.deadline {
			return e.deadline, true
		}
		co.relq.pop()
	}
	return 0, false
}
