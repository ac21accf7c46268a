package sim

import "testing"

// BenchmarkScheduleFire measures the raw schedule-then-fire cycle: one event
// in flight at a time, the engine's hottest path.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		e.AfterFunc(Microsecond, func() {})
		e.Run()
	}
}

// BenchmarkScheduleFireSpread measures the schedule-then-fire cycle with the
// arm mix the vnperf workloads show: 64 events in flight, each re-armed as it
// fires at a seeded delay of 256 ns to 8 µs (an octave of 256–512, …,
// 4,096–8,192 ns picked uniformly, then a uniform delay within it). One op
// is one fire and one arm. ScheduleFire's lone 1 µs event always lands on
// one wheel level and does not show where arms go.
func BenchmarkScheduleFireSpread(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	var delays [1024]Duration
	for i := range delays {
		lo := Duration(256) << e.Rand().Intn(5)
		delays[i] = lo + Duration(e.Rand().Int63n(int64(lo)))
	}
	n, left := 0, b.N
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			e.AfterFunc(delays[n%len(delays)], fire)
			n++
		}
	}
	for i := 0; i < 64; i++ {
		e.AfterFunc(delays[len(delays)-1-i], fire)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleFireFanout measures bursts: 64 events scheduled across a
// spread of delays, then drained.
func BenchmarkScheduleFireFanout(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.AfterFunc(Duration(j%17)*Microsecond, fn)
		}
		e.Run()
	}
}

// BenchmarkTimerStopChurn measures the retransmit-timer pattern: arm a timer,
// cancel it before it fires, repeat.
func BenchmarkTimerStopChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	fn := func() {}
	t := e.NewTimer(fn)
	for i := 0; i < b.N; i++ {
		t.Reset(100 * Microsecond)
		t.Stop()
		e.AfterFunc(Microsecond, fn)
		e.Run()
	}
}

// BenchmarkProcSleep measures the proc wakeup path: a single proc sleeping in
// a loop, which is how firmware loops and pollers idle.
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	e.Run()
	e.Shutdown()
}

// BenchmarkCondSignalWait measures the handoff between two procs through a
// Cond, the blocking primitive under bundles and semaphores.
func BenchmarkCondSignalWait(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := new(Cond)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Wait(p)
		}
	})
	e.Spawn("signaller", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			for len(c.waiters) == 0 {
				p.Yield()
			}
			c.Signal()
			p.Yield()
		}
	})
	e.Run()
	e.Shutdown()
}

// BenchmarkWaitTimeout measures the timed-wait pattern used by rpc.Serve and
// the stress harness: every wait arms and disarms a timeout timer.
func BenchmarkWaitTimeout(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	c := new(Cond)
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.WaitTimeout(p, Microsecond)
		}
	})
	e.Run()
	e.Shutdown()
}

// BenchmarkCoordinatorWindow measures one busy barrier window at 2 shards:
// each shard fires a chain of 300 events, tens of µs of work, and posts one
// event to the other. It shows the cost of handing a window to a worker
// that has gone cold, which back-to-back empty windows hide. The chains
// keep no state of their own, and eight cold events armed ahead of each
// chain's first keep the two chains' pooled events apart in memory: shards
// that shared a cache line would measure that instead.
func BenchmarkCoordinatorWindow(b *testing.B) {
	b.ReportAllocs()
	const W, chain = 3000, 300
	c := NewCoordinator(1, 2, W)
	defer c.Shutdown()
	for s := 0; s < 2; s++ {
		e, peer := c.Engine(s), 1-s
		for i := 0; i < 8; i++ {
			e.AfterFunc(0, func() {})
		}
		var step func()
		step = func() {
			if e.Now()%W == 0 {
				e.PostRemote(peer, e.Now().Add(W), func() {})
			}
			e.AfterFunc(W/chain, step)
		}
		e.AfterFunc(W/chain, step)
	}
	c.RunFor(W)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunFor(W)
	}
}
