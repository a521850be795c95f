package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"time"
)

// event is a scheduled callback. Events with equal time fire in the order
// they were scheduled (seq breaks ties), which makes the whole simulation
// deterministic.
//
// An event either runs a callback (fn != nil) or wakes a parked process
// (p != nil): process wakeups are frequent enough on the fault path that
// dedicating fields to them avoids a closure allocation per Sleep, Signal
// and Spawn. Fired and cancelled events return to the simulator's free list;
// gen guards Timers against recycled events (a Timer only refers to the
// incarnation it was issued for).
type event struct {
	t    Time
	seq  uint64
	fn   func()
	p    *Proc  // wake target when fn == nil
	tok  uint64 // wake token for p
	dead bool   // cancelled
	gen  uint32 // incarnation; bumped every recycle
}

// eventHeap is a concrete 4-ary min-heap ordered by (time, seq). A 4-ary
// layout halves the tree depth of a binary heap (fewer cache misses on
// sift-down) and the concrete element type removes the container/heap
// interface dispatch and interface{} boxing from the per-event hot path.
// The (time, seq) key is a total order — no two live events compare equal —
// so heap dispatch order is exactly FIFO among same-time events regardless
// of internal sibling layout.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// push inserts ev, sifting up.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum, sifting down.
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s)
	top := s[0]
	last := s[n-1]
	s[n-1] = nil
	s = s[:n-1]
	*h = s
	n--
	if n > 0 {
		s[0] = last
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if eventLess(s[c], s[min]) {
					min = c
				}
			}
			if !eventLess(s[min], s[i]) {
				break
			}
			s[i], s[min] = s[min], s[i]
			i = min
		}
	}
	return top
}

// Simulator owns the simulated clock and the event queue. It is not safe for
// concurrent use: one goroutine at a time may drive it (Run, Shutdown, ...),
// and the process model guarantees only one process touches it at a time.
type Simulator struct {
	now     Time
	events  eventHeap
	seq     uint64
	free    []*event // recycled events
	src     *countingSource
	rng     *rand.Rand
	current *Proc   // process currently executing, if any
	live    int     // spawned processes that have not yet finished
	procs   []*Proc // every spawned process, for Shutdown

	// dispatched counts events run since construction; a deterministic
	// measure of how much simulated work a run performed.
	dispatched int64

	// donations maps a process to a wake-event sequence number reserved for
	// it by a snapshot (see DonateWakeSeq): a respawned service loop's next
	// timed park at the recorded instant reuses the parent event's seq, so
	// same-instant tie order is identical on both sides of a fork.
	donations map[*Proc]donatedWake

	// horizon is the limit of the Run or RunUntilIdle call in progress, or
	// -1 when none is; dispatchBound is the dispatch count that call may not
	// reach (RunUntilIdle's runaway bound), or 0 when none is. A parking
	// process runs events in place only within both (see runInline), so
	// outside Run every park switches.
	horizon       Time
	dispatchBound int64

	// callbackPanic holds a panic of a callback run by runInline, until the
	// scheduler re-raises it.
	callbackPanic *CallbackPanic
}

// New returns a simulator whose random source is seeded with seed. The same
// seed always yields the same execution. The source is the stdlib one behind
// a draw counter, so the stream is identical to rand.New(rand.NewSource(seed))
// and a Fork can clone the position exactly.
func New(seed int64) *Simulator {
	src := newCountingSource(seed)
	return &Simulator{src: src, rng: rand.New(src), horizon: -1}
}

// Now returns the current simulated instant.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Live reports the number of spawned processes that have not terminated.
func (s *Simulator) Live() int { return s.live }

// Current returns the process currently executing, or nil when the
// scheduler (an event callback) is running.
func (s *Simulator) Current() *Proc { return s.current }

// Pending reports the number of events still queued (including cancelled
// placeholders not yet popped).
func (s *Simulator) Pending() int { return len(s.events) }

// Dispatched reports how many events have been run so far. It depends only
// on the seed and the workload, never on wall-clock, so identical runs
// report identical counts.
func (s *Simulator) Dispatched() int64 { return s.dispatched }

// Timer identifies a scheduled event and allows cancellation.
type Timer struct {
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending.
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	return true
}

// alloc takes an event from the free list (or the heap allocator), stamping
// it with the next sequence number and time t.
func (s *Simulator) alloc(t Time) *event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.t = t
	ev.seq = s.seq
	return ev
}

// recycle returns a popped event to the free list, invalidating any Timer
// still referring to it.
func (s *Simulator) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.p = nil
	ev.tok = 0
	ev.dead = false
	s.free = append(s.free, ev)
}

// At schedules fn to run at instant t. Scheduling in the past is an error in
// the caller; the event is clamped to "now" to keep time monotonic.
func (s *Simulator) At(t Time, fn func()) Timer {
	ev := s.alloc(t)
	ev.fn = fn
	s.events.push(ev)
	return Timer{ev, ev.gen}
}

// atWake schedules a wakeup of p with token tok at instant t, without
// allocating a closure. A pending seq donation for (p, t) — registered by a
// snapshot via DonateWakeSeq — replaces the freshly drawn seq so the park
// event sorts exactly where the parent world's did.
func (s *Simulator) atWake(t Time, p *Proc, tok uint64) Timer {
	ev := s.alloc(t)
	if d, ok := s.donations[p]; ok && d.t == ev.t {
		ev.seq = d.seq
		delete(s.donations, p)
	}
	ev.p = p
	ev.tok = tok
	s.events.push(ev)
	return Timer{ev, ev.gen}
}

// After schedules fn to run d after the current instant.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	return s.At(s.now.Add(d), fn)
}

// peekLive returns the earliest pending live event, discarding cancelled
// ones, or nil when the queue is (effectively) empty.
func (s *Simulator) peekLive() *event {
	for len(s.events) > 0 {
		next := s.events[0]
		if !next.dead {
			return next
		}
		s.events.pop()
		s.recycle(next)
	}
	return nil
}

// step pops and runs the next event. It reports false when the queue is
// empty or the next event lies beyond limit.
func (s *Simulator) step(limit Time) bool {
	next := s.peekLive()
	if next == nil || next.t > limit {
		return false
	}
	fn, p, tok := s.take()
	if p != nil {
		p.wake(tok)
	} else {
		call(fn)
	}
	return true
}

// CallbackPanic is the value a Simulator method (Run, RunUntilIdle, ...)
// panics with when an event callback panics, whether the scheduler ran the
// callback or a parking process ran it in place. The scheduler state is
// consistent, so the caller may recover it and run on or call Shutdown.
type CallbackPanic struct {
	Value any    // the value the callback panicked with
	Stack []byte // the stack at the panic, down to the callback's own frame
}

func (e *CallbackPanic) Error() string {
	return fmt.Sprintf("sim: event callback panicked: %v\n\n%s", e.Value, e.Stack)
}

// call runs callback fn from the scheduler, wrapping a panic in a
// CallbackPanic that carries the callback's stack.
func call(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			panic(&CallbackPanic{Value: r, Stack: debug.Stack()})
		}
	}()
	fn()
}

// take pops the earliest event for dispatch: it counts the dispatch,
// advances the clock to the event's instant and recycles the event,
// returning what to run.
func (s *Simulator) take() (fn func(), p *Proc, tok uint64) {
	ev := s.events.pop()
	s.dispatched++
	if ev.t > s.now {
		s.now = ev.t
	}
	fn, p, tok = ev.fn, ev.p, ev.tok
	s.recycle(ev)
	return fn, p, tok
}

// runInline is the scheduler loop run on the coroutine of parking process
// p, for as long as switching to the scheduler could not matter: it
// dispatches the callback events due next, in order, exactly as the
// scheduler's step would (same horizon, dispatch bound, clock and count),
// and stops at the first process wake. If that wake is p's own current one
// it consumes it and reports true: p resumes in place without a switch.
// Anything else — another process's wake, a stale wake, the horizon, the
// dispatch bound or a panicking callback — is left to the scheduler, and p
// parks as usual.
func (s *Simulator) runInline(p *Proc) bool {
	for s.dispatched < s.dispatchBound {
		ev := s.peekLive()
		if ev == nil || ev.t > s.horizon {
			return false
		}
		if ev.p != nil && (ev.p != p || ev.tok != p.wakeSeq) {
			return false
		}
		fn, _, _ := s.take()
		if fn == nil {
			return true
		}
		if !s.callInline(p, fn) {
			return false
		}
	}
	return false
}

// callInline runs callback fn on p's coroutine in scheduler context
// (Current is nil while it runs). A panic in fn is recorded, with the
// callback's stack, for the scheduler to re-raise once p has parked, so it
// reaches the caller of Run as it would have from the scheduler; callInline
// then reports false.
func (s *Simulator) callInline(p *Proc, fn func()) (ok bool) {
	defer func() {
		s.current = p
		if r := recover(); r != nil {
			s.callbackPanic = &CallbackPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	s.current = nil
	fn()
	return true
}

// stopped marks that no Run or RunUntilIdle call is in progress.
func (s *Simulator) stopped() { s.horizon, s.dispatchBound = -1, 0 }

// Run executes events until the queue is exhausted or the clock would pass
// until. On return the clock reads min(until, time of last event run), and
// is advanced to until if the queue drained earlier.
func (s *Simulator) Run(until Time) {
	s.horizon, s.dispatchBound = until, math.MaxInt64
	defer s.stopped()
	for s.step(until) {
	}
	if s.now < until {
		s.now = until
	}
}

// RunFor runs the simulation for duration d from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.Run(s.now.Add(d)) }

// Shutdown unwinds every live process, releasing the coroutine (and its
// goroutine) backing each one. Without it a finished simulation leaks one
// parked coroutine per live process — invisible in a run-once CLI, fatal in a
// long-lived daemon. A parked process unwinds from its park point with its
// kill flag set, running its defers without executing further workload; a
// process that was never dispatched never starts. The simulator must not be
// used afterwards, except that Shutdown may be called again (for example
// after recovering a ProcPanic it raised). Must be called from scheduler
// context (never from inside a process).
func (s *Simulator) Shutdown() {
	for _, p := range s.procs {
		if !p.done {
			p.shutdown()
		}
	}
	s.procs = nil
}

// RunUntilIdle executes events until none remain. It panics if the
// simulation exceeds maxEvents dispatches, which indicates a runaway loop.
func (s *Simulator) RunUntilIdle(maxEvents int) {
	const forever = Time(1<<62 - 1)
	start := s.dispatched
	// The scheduler dispatches an event only while the count run so far is
	// at most maxEvents, so events run in place must stay below this bound.
	bound := int64(math.MaxInt64)
	if int64(maxEvents) < bound-start {
		bound = start + int64(maxEvents) + 1
	}
	s.horizon, s.dispatchBound = forever, bound
	defer s.stopped()
	for {
		if s.dispatched-start > int64(maxEvents) {
			panic(fmt.Sprintf("sim: RunUntilIdle exceeded %d events at t=%v", maxEvents, s.now))
		}
		if !s.step(forever) {
			return
		}
	}
}
