package sim

import (
	"testing"
	"time"
)

func BenchmarkEventDispatch(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Run(s.Now().Add(time.Microsecond))
	}
}

// BenchmarkProcContextSwitch prices one park/wake round trip: two processes
// sleep 2µs each, offset by 1µs, so every wake has the other process's wake
// queued before it and really switches coroutines.
func BenchmarkProcContextSwitch(b *testing.B) {
	s := New(1)
	n := 0
	body := func(offset time.Duration) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(offset)
			for n < b.N {
				p.Sleep(2 * time.Microsecond)
				n++
			}
		}
	}
	s.Spawn("even", body(0))
	s.Spawn("odd", body(time.Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(b.N + 10)
}

// BenchmarkProcSleepInPlace prices a lone sleeper's Sleep: its own wake is
// always the next event, so it resumes in place without switching.
func BenchmarkProcSleepInPlace(b *testing.B) {
	s := New(1)
	n := 0
	s.Spawn("lone", func(p *Proc) {
		for n < b.N {
			p.Sleep(time.Microsecond)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(b.N + 10)
}

// BenchmarkProcSpawn prices a process's whole life: spawn (building its
// coroutine), first dispatch and exit. A simulator keeps every process it
// spawned until Shutdown, so the benchmark starts a fresh one every 1,024
// processes to keep its heap small.
func BenchmarkProcSpawn(b *testing.B) {
	var s *Simulator
	body := func(p *Proc) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			s = New(1)
			b.StartTimer()
		}
		s.Spawn("short", body)
		s.RunUntilIdle(10)
	}
}

func BenchmarkCondSignalWait(b *testing.B) {
	s := New(1)
	c := NewCond(s)
	n := 0
	s.Spawn("waiter", func(p *Proc) {
		for n < b.N {
			c.Wait(p)
			n++
		}
	})
	s.Spawn("signaller", func(p *Proc) {
		for n < b.N {
			c.Signal()
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(4*b.N + 100)
}

func BenchmarkQueueSendRecv(b *testing.B) {
	s := New(1)
	q := NewQueue[int](s, 64)
	n := 0
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Send(p, i)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.RunUntilIdle(8*b.N + 100)
}
