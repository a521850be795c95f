package sim

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	s := New(1)
	var woke Time = -1
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		woke = p.Now()
	})
	s.RunUntilIdle(100)
	if woke != Time(3*time.Millisecond) {
		t.Fatalf("woke at %v, want 3ms", woke)
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d, want 0", s.Live())
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var log []string
	mk := func(name string, d time.Duration) {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				log = append(log, name)
			}
		})
	}
	mk("a", 2*time.Millisecond)
	mk("b", 3*time.Millisecond)
	s.RunUntilIdle(1000)
	// a wakes at 2,4,6; b at 3,6,9. At t=6 b's timer was scheduled
	// earlier (at t=3, vs a's at t=4) so b fires first: a2 b3 a4 b6 a6 b9.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestProcYieldRunsAfterQueuedEvents(t *testing.T) {
	s := New(1)
	var log []string
	s.Spawn("y", func(p *Proc) {
		s.At(p.Now(), func() { log = append(log, "event") })
		p.Yield()
		log = append(log, "proc")
	})
	s.RunUntilIdle(100)
	if len(log) != 2 || log[0] != "event" || log[1] != "proc" {
		t.Fatalf("log = %v", log)
	}
}

func TestSleepUntil(t *testing.T) {
	s := New(1)
	var at Time
	s.Spawn("u", func(p *Proc) {
		p.SleepUntil(Time(5 * time.Millisecond))
		p.SleepUntil(Time(time.Millisecond)) // in the past: no-op
		at = p.Now()
	})
	s.RunUntilIdle(100)
	if at != Time(5*time.Millisecond) {
		t.Fatalf("at = %v", at)
	}
}

func TestKillParkedProc(t *testing.T) {
	s := New(1)
	reached := false
	p := s.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		reached = true
	})
	s.At(Time(time.Millisecond), func() { p.Kill() })
	s.RunUntilIdle(100)
	if reached {
		t.Fatal("killed process continued past Sleep")
	}
	if !p.Done() || !p.Killed() {
		t.Fatalf("Done=%v Killed=%v", p.Done(), p.Killed())
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d", s.Live())
	}
}

func TestKillSelf(t *testing.T) {
	s := New(1)
	after := false
	var p *Proc
	p = s.Spawn("suicide", func(q *Proc) {
		q.Kill()
		after = true
	})
	s.RunUntilIdle(100)
	if after {
		t.Fatal("self-kill did not unwind immediately")
	}
	if !p.Done() {
		t.Fatal("not done")
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	s := New(1)
	p := s.Spawn("quick", func(p *Proc) {})
	s.RunUntilIdle(100)
	p.Kill() // must not panic or wedge
	s.RunUntilIdle(100)
}

func TestStaleWakeupIgnored(t *testing.T) {
	// A process that sleeps twice must not be woken early by the first
	// timer if an external event re-dispatches it in between. The token
	// scheme guarantees this; simulate the hazard via Cond timeout.
	s := New(1)
	c := NewCond(s)
	var woke []Time
	s.Spawn("w", func(p *Proc) {
		// Wait with a 10ms timeout, get signalled at 2ms.
		if !c.WaitTimeout(p, 10*time.Millisecond) {
			t.Error("expected signal, got timeout")
		}
		woke = append(woke, p.Now())
		// Then sleep past the original timeout; the stale timer at
		// 10ms must not cut this short.
		p.Sleep(20 * time.Millisecond)
		woke = append(woke, p.Now())
	})
	s.At(Time(2*time.Millisecond), func() { c.Signal() })
	s.RunUntilIdle(1000)
	if len(woke) != 2 || woke[0] != Time(2*time.Millisecond) || woke[1] != Time(22*time.Millisecond) {
		t.Fatalf("woke = %v", woke)
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		s := New(99)
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			s.Spawn(name, func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(time.Duration(s.Rand().Intn(500)+1) * time.Microsecond)
					log = append(log, name)
				}
			})
		}
		s.RunUntilIdle(10000)
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New(1)
	var childRan Time = -1
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = c.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	s.RunUntilIdle(100)
	if childRan != Time(2*time.Millisecond) {
		t.Fatalf("child ran at %v, want 2ms", childRan)
	}
}

func TestNegativeSleepIsImmediate(t *testing.T) {
	s := New(1)
	done := false
	s.Spawn("n", func(p *Proc) {
		p.Sleep(-time.Second)
		done = true
	})
	s.RunUntilIdle(10)
	if !done || s.Now() != 0 {
		t.Fatalf("done=%v now=%v", done, s.Now())
	}
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var defers atomic.Int32
	// A mix of states at shutdown: parked mid-sleep, never dispatched, and
	// already finished.
	for i := 0; i < 50; i++ {
		s.Spawn("sleeper", func(p *Proc) {
			defer defers.Add(1)
			p.Sleep(time.Hour)
			t.Error("killed process ran past its park point")
		})
	}
	s.Spawn("quick", func(p *Proc) {})
	s.RunFor(time.Millisecond)
	started := false
	s.Spawn("late", func(p *Proc) { started = true }) // scheduled, never run
	s.Shutdown()
	if started {
		t.Error("process spawned after the run executed during Shutdown")
	}
	if s.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", s.Live())
	}
	if n := defers.Load(); n != 50 {
		t.Errorf("%d deferred cleanups ran, want 50 (kill must unwind the stack)", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines = %d, baseline %d: Shutdown leaked", n, before)
	}
}

func TestShutdownIdempotentOnFinishedSim(t *testing.T) {
	s := New(1)
	s.Spawn("quick", func(p *Proc) {})
	s.RunUntilIdle(100)
	s.Shutdown()
	s.Shutdown() // second call is a no-op
}

// waitGoroutines waits up to 5 s for the goroutine count to fall back to
// baseline and reports whether it did.
func waitGoroutines(baseline int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() <= baseline
}

func explode() { panic("boom") }

func TestProcPanicSurfacesOnRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var defers atomic.Int32
	for i := 0; i < 10; i++ {
		s.Spawn("bystander", func(p *Proc) {
			defer defers.Add(1)
			p.Sleep(time.Hour)
		})
	}
	bad := s.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		explode()
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run(Time(time.Second))
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", got, got)
	}
	if pp.Proc != bad || pp.Value != "boom" {
		t.Errorf("ProcPanic{Proc: %q, Value: %v}, want bad/boom", pp.Proc.Name(), pp.Value)
	}
	if !bytes.Contains(pp.Stack, []byte("explode")) {
		t.Errorf("stack does not show the process's own frames:\n%s", pp.Stack)
	}
	if s.Current() != nil {
		t.Errorf("Current() = %q after the panic, want nil", s.Current().Name())
	}
	if !bad.Done() || s.Live() != 10 {
		t.Errorf("bad.Done=%v Live=%d, want true/10", bad.Done(), s.Live())
	}
	s.Shutdown()
	if s.Live() != 0 || defers.Load() != 10 {
		t.Errorf("after Shutdown Live=%d defers=%d, want 0/10", s.Live(), defers.Load())
	}
	if !waitGoroutines(before) {
		t.Errorf("goroutines = %d, baseline %d: Shutdown after a panic leaked", runtime.NumGoroutine(), before)
	}
}

func TestKillBeforeFirstDispatchNeverRuns(t *testing.T) {
	s := New(1)
	ran := false
	p := s.Spawn("stillborn", func(p *Proc) { ran = true })
	p.Kill()
	s.RunUntilIdle(100)
	if ran || !p.Done() || s.Live() != 0 {
		t.Fatalf("ran=%v Done=%v Live=%d", ran, p.Done(), s.Live())
	}
}

func TestShutdownUnwindsParkInDefer(t *testing.T) {
	// A deferred cleanup that parks while the process is being shut down
	// must not leave the process parked: the park unwinds again.
	before := runtime.NumGoroutine()
	s := New(1)
	p := s.Spawn("stubborn", func(p *Proc) {
		defer p.Sleep(time.Second)
		p.Sleep(time.Hour)
	})
	s.RunFor(time.Millisecond)
	s.Shutdown()
	if !p.Done() || s.Live() != 0 {
		t.Fatalf("Done=%v Live=%d", p.Done(), s.Live())
	}
	if !waitGoroutines(before) {
		t.Errorf("goroutines = %d, baseline %d", runtime.NumGoroutine(), before)
	}
}

func TestSpawnAndRunOnDifferentGoroutines(t *testing.T) {
	// A simulator built on one goroutine and run, then shut down, on
	// another — the serve warm pool's pattern. Run under -race.
	before := runtime.NumGoroutine()
	worlds := make(chan *Simulator)
	go func() {
		defer close(worlds)
		for i := 0; i < 4; i++ {
			s := New(int64(i))
			c := NewCond(s)
			for j := 0; j < 8; j++ {
				s.Spawn("waiter", func(p *Proc) {
					for {
						c.Wait(p)
					}
				})
			}
			s.Spawn("signaller", func(p *Proc) {
				for k := 0; k < 100; k++ {
					c.Signal()
					p.Sleep(time.Microsecond)
				}
			})
			worlds <- s
		}
	}()
	done := make(chan int64)
	go func() {
		var total int64
		for s := range worlds {
			s.RunFor(time.Second)
			s.Shutdown()
			if s.Live() != 0 {
				t.Errorf("Live = %d after Shutdown", s.Live())
			}
			total += s.Dispatched()
		}
		done <- total
	}()
	if n := <-done; n == 0 {
		t.Fatal("no events dispatched")
	}
	if !waitGoroutines(before) {
		t.Errorf("goroutines = %d, baseline %d", runtime.NumGoroutine(), before)
	}
}
