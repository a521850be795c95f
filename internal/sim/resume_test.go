package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These tests pin the in-place resume (runInline) to the park/wake round trip
// it replaces: wherever it must not apply the process parks, and wherever it
// applies the clock, sequence counter, dispatch count and wake token end up
// exactly where the round trip would leave them.

func TestSleepInPlaceMatchesRoundTripCounters(t *testing.T) {
	s := New(1)
	var woke []Time
	s.Spawn("lone", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
			woke = append(woke, p.Now())
		}
	})
	s.RunUntilIdle(100)
	// One spawn dispatch plus ten wakes, each drawing one seq, exactly as
	// eleven queued events would have.
	if s.Dispatched() != 11 || s.seq != 11 {
		t.Fatalf("Dispatched = %d, seq = %d, want 11 and 11", s.Dispatched(), s.seq)
	}
	if len(woke) != 10 || woke[9] != Time(10*time.Millisecond) || s.Now() != woke[9] {
		t.Fatalf("woke at %v, Now = %v", woke, s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func TestSleepPastRunLimitParks(t *testing.T) {
	s := New(1)
	var woke []Time
	s.Spawn("long", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = append(woke, p.Now())
		p.Sleep(5 * time.Millisecond)
		woke = append(woke, p.Now())
	})
	until := Time(5 * time.Millisecond)
	s.Run(until)
	if s.Now() != until {
		t.Fatalf("Now = %v after Run(%v): a sleep past the limit moved the clock", s.Now(), until)
	}
	if len(woke) != 1 || woke[0] != Time(3*time.Millisecond) {
		t.Fatalf("woke = %v, want [3ms]", woke)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want the parked wake", s.Pending())
	}
	s.Run(Time(20 * time.Millisecond))
	if len(woke) != 2 || woke[1] != Time(8*time.Millisecond) {
		t.Fatalf("woke = %v, want [3ms 8ms]", woke)
	}
}

func TestSleepTyingQueuedEventParks(t *testing.T) {
	s := New(1)
	var log []string
	at := Time(2 * time.Millisecond)
	s.At(at, func() { log = append(log, "event") })
	s.Spawn("tie", func(p *Proc) {
		p.Sleep(at.Sub(p.Now()))
		log = append(log, fmt.Sprintf("proc@%v", p.Now()))
	})
	s.RunUntilIdle(100)
	// The event was queued first, so it must run first at the shared instant.
	if len(log) != 2 || log[0] != "event" || log[1] != fmt.Sprintf("proc@%v", at) {
		t.Fatalf("log = %v, want [event proc@%v]", log, at)
	}
}

func TestLoneSleeperStillExceedsRunUntilIdle(t *testing.T) {
	// Without the dispatch bound this loop resumes in place forever and the
	// test hangs; run it under an explicit -timeout.
	s := New(1)
	s.Spawn("runaway", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	const n = 1000
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "exceeded") {
			t.Fatalf("recovered %v, want a RunUntilIdle 'exceeded' panic", r)
		}
		// The round trip panics once n+1 events have run: the spawn
		// dispatch and n wakes, the last at instant n.
		if s.Dispatched() != n+1 || s.Now() != Time(n) {
			t.Fatalf("Dispatched = %d, Now = %v at the panic, want %d and %v", s.Dispatched(), s.Now(), n+1, Time(n))
		}
		s.Shutdown()
	}()
	s.RunUntilIdle(n)
}

func TestSignalAfterWaitTimeoutFiredIsNoop(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var signalled bool
	var waiting int
	var woke Time
	s.Spawn("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, time.Millisecond)
		p.Sleep(time.Millisecond) // resumes in place: the next event is at 10ms
		waiting = c.Waiting()
		p.Sleep(18 * time.Millisecond)
		woke = p.Now()
	})
	var woken bool
	s.At(Time(10*time.Millisecond), func() { woken = c.Signal() })
	s.RunUntilIdle(100)
	if signalled {
		t.Fatal("WaitTimeout reported a signal, want timeout")
	}
	if waiting != 0 {
		t.Fatalf("Waiting = %d after the timeout and a sleep, want 0", waiting)
	}
	if woken {
		t.Fatal("Signal woke a waiter whose timeout had already fired")
	}
	if woke != Time(20*time.Millisecond) {
		t.Fatalf("sleeper woke at %v, want 20ms", woke)
	}
}

func TestSleepInDeferUnwindsOnKillAndShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var after []string
	mk := func(name string) *Proc {
		return s.Spawn(name, func(p *Proc) {
			defer func() {
				p.Sleep(time.Millisecond) // nothing else is due: would resume in place
				after = append(after, name)
			}()
			p.Sleep(time.Hour)
		})
	}
	killed := mk("killed")
	shut := mk("shut")
	s.RunFor(time.Millisecond)
	s.At(s.Now(), killed.Kill)
	s.RunFor(time.Millisecond)
	if !killed.Done() {
		t.Fatal("killed process did not finish")
	}
	s.Shutdown()
	if !shut.Done() || s.Live() != 0 {
		t.Fatalf("Done = %v, Live = %d after Shutdown", shut.Done(), s.Live())
	}
	if len(after) != 0 {
		t.Fatalf("deferred code after a Sleep ran in %v: a dying process slept in place", after)
	}
	if !waitGoroutines(before) {
		t.Errorf("goroutines = %d, baseline %d", runtime.NumGoroutine(), before)
	}
}

func TestDonatedSeqTakesParkingPath(t *testing.T) {
	// A parent service loop parks at instant at; a callback is queued behind
	// it at the same instant.
	parent := New(1)
	at := Time(2 * time.Millisecond)
	loop := func(log *[]string) func(p *Proc) {
		return func(p *Proc) {
			p.SleepUntil(at)
			*log = append(*log, "loop")
		}
	}
	var parentLog []string
	svc := parent.Spawn("svc", loop(&parentLog))
	parent.Run(Time(time.Millisecond))
	wakeAt, wakeSeq, ok := parent.ParkedWake(svc)
	if !ok || wakeAt != at {
		t.Fatalf("ParkedWake = %v %d %v", wakeAt, wakeSeq, ok)
	}
	cb := parent.At(at, func() { parentLog = append(parentLog, "callback") })
	_, cbSeq, _ := cb.When()

	// The fork re-arms the callback with its seq and respawns the loop
	// with a donation of the parent's park seq.
	var childLog []string
	child := parent.Fork()
	child.RestoreAt(at, cbSeq, func() { childLog = append(childLog, "callback") })
	twin := child.Spawn("svc", loop(&childLog))
	child.DonateWakeSeq(twin, at, wakeSeq)

	parent.RunUntilIdle(100)
	child.RunUntilIdle(100)
	if strings.Join(childLog, " ") != strings.Join(parentLog, " ") || parentLog[0] != "loop" {
		t.Fatalf("child order %v, parent %v: want loop first on both", childLog, parentLog)
	}
	if _, pending := child.donations[twin]; pending {
		t.Fatal("donation left unconsumed")
	}

	parent.Shutdown()
	child.Shutdown()

	// A donated loop with nothing else queued must still park, so the
	// donation is consumed rather than left for a later same-instant park.
	s := New(1)
	s.At(0, func() {})
	s.Run(0)
	var loneLog []string
	p := s.Spawn("svc", loop(&loneLog))
	s.DonateWakeSeq(p, at, 1)
	s.RunUntilIdle(100)
	if len(loneLog) != 1 || s.Now() != at {
		t.Fatalf("log %v at %v, want [loop] at %v", loneLog, s.Now(), at)
	}
	if _, pending := s.donations[p]; pending {
		t.Fatal("a loop with a donated seq left the donation pending")
	}
}

func TestParkRunsDueCallbacksInPlace(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var log []string
	var currents []*Proc
	s.Spawn("waiter", func(p *Proc) {
		// The callback that signals is the only event before the wake: it
		// runs on this coroutine, in scheduler context.
		s.At(p.Now().Add(time.Millisecond), func() {
			currents = append(currents, s.Current())
			log = append(log, "signal")
			c.Signal()
		})
		c.Wait(p)
		log = append(log, fmt.Sprintf("woke@%v", p.Now()))
	})
	s.RunUntilIdle(100)
	if strings.Join(log, " ") != "signal woke@1.000000ms" {
		t.Fatalf("log = %v", log)
	}
	if len(currents) != 1 || currents[0] != nil {
		t.Fatalf("Current() inside the callback = %v, want nil", currents)
	}
	// Spawn, callback, wake: the same three dispatches as the round trip.
	if s.Dispatched() != 3 {
		t.Fatalf("Dispatched = %d, want 3", s.Dispatched())
	}
}

func TestCallbackKillingItsHostProcessUnwindsIt(t *testing.T) {
	s := New(1)
	c := NewCond(s)
	var after bool
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		s.At(p.Now().Add(time.Millisecond), victim.Kill)
		c.Wait(p)
		after = true
	})
	s.RunUntilIdle(100)
	if !victim.Done() || !victim.Killed() || after {
		t.Fatalf("Done=%v Killed=%v after=%v", victim.Done(), victim.Killed(), after)
	}
}

// explodingCallback is a named callback so a test can find its frame in the
// reported stack.
func explodingCallback() { panic("callback boom") }

// runRecovering runs s to until and returns the CallbackPanic Run raised.
func runRecovering(t *testing.T, s *Simulator, until Time) *CallbackPanic {
	t.Helper()
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run(until)
	}()
	cp, ok := got.(*CallbackPanic)
	if !ok || cp.Value != "callback boom" {
		t.Fatalf("Run panicked with %T %v, want *CallbackPanic with the callback's own value", got, got)
	}
	if !strings.Contains(string(cp.Stack), "explodingCallback") {
		t.Fatalf("CallbackPanic stack lacks the callback's frame:\n%s", cp.Stack)
	}
	return cp
}

func TestSchedulerCallbackPanicCarriesItsStack(t *testing.T) {
	s := New(1)
	s.At(Time(time.Millisecond), explodingCallback)
	runRecovering(t, s, Time(time.Second))
	if s.Now() != Time(time.Millisecond) {
		t.Fatalf("Now = %v, want 1ms", s.Now())
	}
}

func TestInlineCallbackPanicReachesRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	c := NewCond(s)
	var resumed bool
	host := s.Spawn("host", func(p *Proc) {
		s.At(p.Now().Add(time.Millisecond), explodingCallback)
		s.At(p.Now().Add(2*time.Millisecond), func() { c.Signal() })
		c.Wait(p)
		resumed = true
	})
	// The callback ran on the host's coroutine, yet the reported stack is
	// the callback's own, not the scheduler's re-raise.
	runRecovering(t, s, Time(time.Second))
	if s.Current() != nil || host.Done() || s.Now() != Time(time.Millisecond) {
		t.Fatalf("Current=%v host.Done=%v Now=%v, want nil/false/1ms", s.Current(), host.Done(), s.Now())
	}
	// The host stayed parked; the world runs on from where the panic left it.
	s.Run(Time(time.Second))
	if !resumed || !host.Done() {
		t.Fatalf("resumed=%v Done=%v after the second Run", resumed, host.Done())
	}
	s.Shutdown()
	if !waitGoroutines(before) {
		t.Errorf("goroutines = %d, baseline %d", runtime.NumGoroutine(), before)
	}
}

func TestInlineCallbacksRespectRunLimitAndBound(t *testing.T) {
	s := New(1)
	var ran []Time
	s.Spawn("p", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			at := Time(i) * Time(time.Millisecond)
			s.At(at, func() { ran = append(ran, at) })
		}
		p.SleepUntil(Time(5 * time.Millisecond))
	})
	s.Run(Time(2 * time.Millisecond))
	if len(ran) != 2 || s.Now() != Time(2*time.Millisecond) {
		t.Fatalf("ran %v, Now %v after Run(2ms): a callback past the limit ran", ran, s.Now())
	}
	s.Shutdown()

	// A process feeding itself same-instant callbacks loops forever on its
	// own coroutine unless the dispatch bound stops it.
	r := New(1)
	r.Spawn("feeder", func(p *Proc) {
		for {
			r.At(p.Now(), func() {})
			p.Yield()
		}
	})
	const n = 1000
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeded") || r.Dispatched() != n+1 {
			t.Fatalf("recovered %q with Dispatched = %d, want 'exceeded' at %d", msg, r.Dispatched(), n+1)
		}
		r.Shutdown()
	}()
	r.RunUntilIdle(n)
}

// roundTrip drives s with the bare scheduler loop and no Run horizon, so
// every park switches to the scheduler and back: the reference the in-place
// paths must be indistinguishable from.
func roundTrip(s *Simulator, until Time) {
	for s.step(until) {
	}
	if s.now < until {
		s.now = until
	}
}

// chaos builds a seeded world of processes that sleep, yield, wait with and
// without timeouts, signal, schedule callbacks, spawn and kill, logging
// every observation; run drives it in chunks.
func chaos(seed int64, run func(s *Simulator, until Time)) (log []string, s *Simulator) {
	s = New(seed)
	rng := s.Rand()
	conds := []*Cond{NewCond(s), NewCond(s)}
	var procs []*Proc
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}
	var body func(name string) func(p *Proc)
	body = func(name string) func(p *Proc) {
		return func(p *Proc) {
			defer func() { logf("%s exit killed=%v", name, p.Killed()) }()
			for i := 0; ; i++ {
				switch rng.Intn(16) {
				case 0, 1, 9, 10, 11:
					p.Sleep(time.Duration(rng.Intn(4)))
				case 2:
					p.Yield()
				case 3, 12:
					conds[rng.Intn(2)].Wait(p)
				case 4, 13:
					ok := conds[rng.Intn(2)].WaitTimeout(p, time.Duration(rng.Intn(5)))
					logf("%s timeout-wait %v", name, ok)
				case 5, 14:
					logf("%s signal %v", name, conds[rng.Intn(2)].Signal())
				case 6, 15:
					d := time.Duration(rng.Intn(4))
					k := rng.Intn(8)
					s.At(p.Now().Add(d), func() {
						switch k {
						case 0:
							logf("cb broadcast %d", conds[rng.Intn(2)].Broadcast())
						case 1:
							v := procs[rng.Intn(len(procs))]
							logf("cb kill %s", v.Name())
							v.Kill()
						default:
							logf("cb current=%v", s.Current() == nil)
							if k == 2 {
								s.After(time.Duration(rng.Intn(3)), func() { logf("cb nested") })
							}
						}
					})
				case 7:
					if len(procs) < 12 {
						child := fmt.Sprintf("%s.%d", name, i)
						procs = append(procs, s.Spawn(child, body(child)))
					}
				case 8:
					v := procs[rng.Intn(len(procs))]
					logf("%s kill %s", name, v.Name())
					v.Kill()
				}
				logf("%s op %d", name, i)
			}
		}
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		procs = append(procs, s.Spawn(name, body(name)))
	}
	// A ticker keeps waiters from starving: every 2 ns it signals a cond.
	var tick func()
	tick = func() {
		logf("tick signal %v", conds[rng.Intn(2)].Signal())
		s.After(2, tick)
	}
	s.After(1, tick)
	for _, until := range []Time{3, 7, 8, 20, 50, 200, 500} {
		run(s, until)
		logf("chunk dispatched=%d seq=%d live=%d", s.Dispatched(), s.seq, s.Live())
	}
	return log, s
}

func TestInPlaceMatchesRoundTripUnderChaos(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want, ref := chaos(seed, roundTrip)
		got, fast := chaos(seed, (*Simulator).Run)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations in place, %d round trip", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d is %q in place, %q round trip", seed, i, got[i], want[i])
			}
		}
		if fast.Dispatched() != ref.Dispatched() || fast.seq != ref.seq || fast.Now() != ref.Now() || fast.Pending() > ref.Pending() {
			t.Fatalf("seed %d: dispatched/seq/now %d/%d/%v in place, %d/%d/%v round trip",
				seed, fast.Dispatched(), fast.seq, fast.Now(), ref.Dispatched(), ref.seq, ref.Now())
		}
		ref.Shutdown()
		fast.Shutdown()
	}
}
