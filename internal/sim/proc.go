//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// killSentinel is the panic value used to unwind a killed process. It never
// escapes the package: the process body wrapper recovers it.
type killSentinel struct{ name string }

// ProcPanic is the value a Simulator method (Run, RunUntilIdle, Shutdown, ...)
// panics with when a process body panics. The process is already finished and
// the scheduler state is consistent, so the caller may recover it and still
// call Shutdown to release the remaining processes.
type ProcPanic struct {
	Proc  *Proc
	Value any    // the value the process panicked with
	Stack []byte // the process's own stack at the panic
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v\n\n%s", e.Proc.name, e.Value, e.Stack)
}

// Proc is a simulated process: a coroutine that runs only when the simulator
// dispatches it and that returns control by blocking on one of the Proc
// primitives (Sleep, Yield, Cond.Wait, ...). At most one Proc executes at any
// moment. Dispatch and park are direct coroutine switches (iter.Pull), which
// bypass the Go scheduler's run queue, and a park whose own wakeup is due
// before any other process's resumes in place without switching at all.
type Proc struct {
	sim   *Simulator
	name  string
	next  func() (struct{}, bool) // scheduler -> process: run until the next park
	stop  func()                  // retire the coroutine (Shutdown)
	yield func(struct{}) bool     // process -> scheduler: park
	// panicked holds a genuine panic of the body, re-raised by the scheduler
	// after it has restored its own state.
	panicked *ProcPanic
	done     bool
	killed   bool
	// wakeSeq invalidates stale wakeups: every park increments it and a
	// wakeup only dispatches if it carries the current value. This makes
	// patterns like "wait with timeout" safe — the losing waker is a no-op.
	wakeSeq uint64
}

// Spawn creates a process executing fn and schedules its first dispatch at
// the current instant. fn runs entirely on the simulated timeline.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name}
	s.live++
	s.procs = append(s.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					p.panicked = &ProcPanic{Proc: p, Value: r, Stack: debug.Stack()}
				}
			}
			p.exit()
		}()
		if p.killed {
			// Killed before ever running: finish without starting fn.
			return
		}
		fn(p)
	})
	s.atWake(s.now, p, p.prepare())
	return p
}

// exit marks the process finished.
func (p *Proc) exit() {
	p.done = true
	p.sim.live--
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Simulator { return p.sim }

// Now returns the current simulated instant.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process has terminated.
func (p *Proc) Done() bool { return p.done }

// Killed reports whether the process was terminated by Kill.
func (p *Proc) Killed() bool { return p.killed }

// prepare arms the process for one wakeup and returns the token the waker
// must present.
func (p *Proc) prepare() uint64 {
	p.wakeSeq++
	return p.wakeSeq
}

// wake dispatches the process if tok is still current. Stale or post-mortem
// wakeups are ignored. wake must be called from scheduler context (inside an
// event callback), never from process context.
func (p *Proc) wake(tok uint64) {
	if p.done || tok != p.wakeSeq {
		return
	}
	p.dispatch()
}

// dispatch switches to the process and returns when it parks or finishes.
func (p *Proc) dispatch() {
	s := p.sim
	prev := s.current
	s.current = p
	p.next()
	s.current = prev
	if r := s.callbackPanic; r != nil {
		s.callbackPanic = nil
		panic(r)
	}
	p.raise()
}

// raise re-panics a genuine panic of the process body on the scheduler side.
func (p *Proc) raise() {
	if p.panicked != nil {
		panic(p.panicked)
	}
}

// park returns control to the scheduler. The caller must already have
// arranged a wakeup (via prepare + some event calling wake). When only
// callbacks are due before that wakeup, the process runs them itself and
// resumes in place (runInline). A process that was killed or stopped while
// parked unwinds instead of returning.
func (p *Proc) park() {
	resumed := p.sim.runInline(p) || p.yield(struct{}{})
	if !resumed || p.killed {
		panic(killSentinel{p.name})
	}
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Yield semantics: run again after everything already queued for
		// this instant. When nothing is queued at the current instant the
		// park/wake round-trip is an observable no-op (the wake would be the
		// very next event dispatched, at the same time), so skip it. Any
		// pending same-time event must still run first, hence the strict
		// ev.t > now check.
		if ev := p.sim.peekLive(); ev == nil || ev.t > p.sim.now {
			return
		}
		p.sim.atWake(p.sim.now, p, p.prepare())
		p.park()
		return
	}
	p.sim.atWake(p.sim.now.Add(d), p, p.prepare())
	p.park()
}

// SleepUntil suspends the process until instant t (or returns immediately if
// t is not in the future).
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		return
	}
	p.Sleep(t.Sub(p.sim.now))
}

// Yield reschedules the process after all events already queued for the
// current instant.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates the process: the next time it would run it unwinds
// instead. Killing an already-finished process is a no-op. A process may
// kill itself, in which case it unwinds immediately.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p.sim.current == p {
		panic(killSentinel{p.name})
	}
	// Invalidate whatever wakeup the process was waiting for and dispatch
	// it so park() observes the kill.
	p.sim.atWake(p.sim.now, p, p.prepare())
}

// shutdown retires the process's coroutine: a parked body unwinds from its
// park point (running its defers; any park inside a defer unwinds again), and
// a body that never ran is never started.
func (p *Proc) shutdown() {
	p.killed = true
	prev := p.sim.current
	p.sim.current = p
	p.stop()
	p.sim.current = prev
	if !p.done {
		p.exit()
	}
	p.raise()
}
