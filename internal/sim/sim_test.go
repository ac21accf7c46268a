package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.AfterFunc(30, func() { got = append(got, 3) })
	e.AfterFunc(10, func() { got = append(got, 1) })
	e.AfterFunc(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.AfterFunc(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of FIFO order: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(10)
	tm.Stop()
	if e.Stats().Cancelled != 1 {
		t.Fatal("Stop did not cancel the pending timer")
	}
	tm.Stop()
	if e.Stats().Cancelled != 1 {
		t.Fatal("second Stop cancelled again")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{5, 15, 25} {
		d := d
		e.AfterFunc(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(15)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=15, want 2", len(fired))
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %d, want 15", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewEngine(1).AfterFunc(-1, func() {})
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			wakes = append(wakes, p.Now())
		}
	})
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if wakes[i] != w {
			t.Fatalf("wakes = %v, want %v", wakes, want)
		}
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(Duration(e.Rand().Intn(5) + 1))
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic run length")
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d diverged: %v vs %v", trial, again, first)
			}
		}
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(10)
		for i := 0; i < 3; i++ {
			c.Signal()
			p.Sleep(1)
		}
	})
	e.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v, want FIFO", order)
	}
}

func TestCondBroadcast(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	e.Spawn("b", func(p *Proc) {
		p.Sleep(5)
		if n := len(c.waiters); n != 5 {
			t.Errorf("Broadcast wakes %d, want 5", n)
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestWaitTimeoutTimesOut(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	var signalled bool
	var at Time
	e.Spawn("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 50)
		at = p.Now()
	})
	e.Run()
	if signalled {
		t.Fatal("WaitTimeout reported signal, want timeout")
	}
	if at != 50 {
		t.Fatalf("woke at %d, want 50", at)
	}
	if len(c.waiters) != 0 {
		t.Fatalf("stale waiter left on cond")
	}
}

func TestWaitTimeoutSignalled(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	var signalled bool
	e.Spawn("w", func(p *Proc) {
		signalled = c.WaitTimeout(p, 50)
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(10)
		c.Signal()
	})
	e.Run()
	if !signalled {
		t.Fatal("WaitTimeout reported timeout, want signal")
	}
}

func TestWaitTimeoutStaleTimerDoesNotCancelNewWait(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	results := []bool{}
	e.Spawn("w", func(p *Proc) {
		// First wait: signalled just before its timeout fires.
		results = append(results, c.WaitTimeout(p, 20))
		// Immediately wait again on the same cond with a long timeout;
		// the first wait's timer (if leaked) would fire at t=20.
		results = append(results, c.WaitTimeout(p, 1000))
	})
	e.Spawn("s", func(p *Proc) {
		p.Sleep(19)
		c.Signal()
		p.Sleep(81)
		c.Signal()
	})
	e.Run()
	if len(results) != 2 || !results[0] || !results[1] {
		t.Fatalf("results = %v, want [true true]", results)
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(1)
	s := NewSemaphore(2)
	inside := 0
	maxInside := 0
	for i := 0; i < 6; i++ {
		e.Spawn("u", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			s.Release()
		})
	}
	e.Run()
	if maxInside != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxInside)
	}
	if s.n != 2 {
		t.Fatalf("available = %d, want 2", s.n)
	}
}

func TestShutdownReleasesBlockedProcs(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	cleanup := false
	e.Spawn("stuck", func(p *Proc) {
		defer func() { cleanup = true }()
		c.Wait(p) // never signalled
	})
	e.Run()
	e.Shutdown()
	if !cleanup {
		t.Fatal("deferred cleanup did not run on shutdown")
	}
}

func TestSpawnNestedProc(t *testing.T) {
	e := NewEngine(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(5)
		e.Spawn("child", func(q *Proc) {
			q.Sleep(5)
			childRan = true
		})
		p.Sleep(20)
	})
	e.Run()
	if !childRan {
		t.Fatal("nested spawn did not run")
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
}

// Property: for any set of non-negative delays, events fire in nondecreasing
// time order and the clock ends at the max delay.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		var max Time
		for _, d := range delays {
			e.AfterFunc(Duration(d), func() { fired = append(fired, e.Now()) })
			if Time(d) > max {
				max = Time(d)
			}
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: semaphore never admits more holders than permits, for random
// permit counts and proc counts.
func TestSemaphoreProperty(t *testing.T) {
	f := func(permits8, procs8 uint8) bool {
		permits := int(permits8%4) + 1
		procs := int(procs8%16) + 1
		e := NewEngine(3)
		s := NewSemaphore(permits)
		inside, ok := 0, true
		for i := 0; i < procs; i++ {
			e.Spawn("u", func(p *Proc) {
				s.Acquire(p)
				inside++
				if inside > permits {
					ok = false
				}
				p.Sleep(Duration(e.Rand().Intn(20) + 1))
				inside--
				s.Release()
			})
		}
		e.Run()
		return ok && s.n == permits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.AfterFunc(10, func() {
		e.AfterFuncAt(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 25 {
		t.Fatalf("fired at %d, want 25", at)
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.AfterFunc(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		e.AfterFuncAt(5, func() {})
	})
	e.Run()
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.NewTimer(func() {})
	tm.Reset(5)
	e.Run()
	tm.Stop()
	if e.Stats().Cancelled != 0 {
		t.Fatal("Stop after fire cancelled an event")
	}
}

func TestRunForSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.NewTimer(func() { fired = true })
	tm.Reset(5)
	tm.Stop()
	e.RunFor(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d", e.Now())
	}
}

func TestCondMixedTimeoutAndSignalOrder(t *testing.T) {
	e := NewEngine(1)
	c := new(Cond)
	var events []string
	e.Spawn("w1", func(p *Proc) {
		if c.WaitTimeout(p, 100) {
			events = append(events, "w1-signal")
		} else {
			events = append(events, "w1-timeout")
		}
	})
	e.Spawn("w2", func(p *Proc) {
		if c.WaitTimeout(p, 10) {
			events = append(events, "w2-signal")
		} else {
			events = append(events, "w2-timeout")
		}
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(50)
		c.Signal() // w2 already timed out; w1 must get this
	})
	e.Run()
	if len(events) != 2 || events[0] != "w2-timeout" || events[1] != "w1-signal" {
		t.Fatalf("events = %v", events)
	}
}

func TestEngineCurDuringProc(t *testing.T) {
	e := NewEngine(1)
	var inside, outside *Proc
	p := e.Spawn("me", func(p *Proc) {
		inside = e.cur
	})
	e.AfterFunc(1, func() { outside = e.cur })
	e.Run()
	if inside != p {
		t.Fatal("Cur() inside proc != the proc")
	}
	if outside != nil {
		t.Fatal("Cur() in event context != nil")
	}
}

func TestProcNameAndDone(t *testing.T) {
	e := NewEngine(1)
	p := e.Spawn("worker", func(p *Proc) { p.Sleep(5) })
	if p.name != "worker" {
		t.Fatalf("name = %q", p.name)
	}
	if p.Done() {
		t.Fatal("done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not done after run")
	}
}

// A wait → wake cycle must not re-allocate the cond's waiter list: Broadcast
// and Signal keep the backing array.
func TestCondWakeCycleAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		wake func(c *Cond)
	}{
		{"broadcast", func(c *Cond) { c.Broadcast() }},
		{"signal", func(c *Cond) {
			for len(c.waiters) > 0 {
				c.Signal()
			}
		}},
	} {
		e := NewEngine(1)
		c := new(Cond)
		woken := 0
		for i := 0; i < 3; i++ {
			e.Spawn("w", func(p *Proc) {
				for {
					c.Wait(p)
					woken++
				}
			})
		}
		e.Run()
		cycle := func() {
			tc.wake(c)
			e.Run()
		}
		cycle()
		woken = 0
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s: wait → wake cycle allocates %.2f times, want 0", tc.name, avg)
		}
		if woken != 3*101 || len(c.waiters) != 3 {
			t.Errorf("%s: woken %d, %d waiting", tc.name, woken, len(c.waiters))
		}
		e.Shutdown()
	}
}

// A fire-and-forget arm → fire cycle takes its event from the pool and
// returns it: no handle, no allocation.
func TestAfterFuncArmFireAllocFree(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		e.AfterFunc(Microsecond, fn)
		e.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("AfterFunc arm → fire allocates %.2f times, want 0", avg)
	}
	if fired != 102 {
		t.Fatalf("fired %d times, want 102", fired)
	}
}

// Park leaves the proc suspended until WakeAt arms its wakeup; the wakeup can
// be moved earlier or later, or withdrawn, while the proc is parked, and none
// of it allocates.
func TestParkWakeAt(t *testing.T) {
	e := NewEngine(1)
	var woke []Time
	p := e.Spawn("sleeper", func(p *Proc) {
		for {
			p.Park()
			woke = append(woke, p.Now())
		}
	})
	e.RunUntil(100)
	if len(woke) != 0 {
		t.Fatalf("parked proc woke unarmed at %v", woke)
	}
	p.WakeAt(500)
	e.AfterFuncAt(200, func() { p.WakeAt(300) })   // earlier
	e.AfterFuncAt(250, func() { p.WakeAt(400) })   // later again
	e.AfterFuncAt(700, func() { p.WakeAt(900) })   // next park
	e.AfterFuncAt(750, func() { p.Unwake() })      // withdrawn
	e.AfterFuncAt(1000, func() { p.WakeAt(1000) }) // now
	e.RunUntil(2000)
	if len(woke) != 2 || woke[0] != 400 || woke[1] != 1000 {
		t.Fatalf("woke at %v, want [400 1000]", woke)
	}
	woke = woke[:0]
	cycle := func() {
		p.WakeAt(e.Now().Add(10))
		e.RunFor(20)
		woke = woke[:0]
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("park → wake cycle allocates %.2f times, want 0", avg)
	}
	e.Shutdown()
}

// Resume runs a parked proc inside the event that calls it: the proc's
// actions take that event's place among the events of the same instant, it
// counts as a hand-off, and a finished proc is left alone.
func TestResumeRunsInTheCallersPlace(t *testing.T) {
	e := NewEngine(1)
	var log []string
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		log = append(log, "proc")
		e.AfterFunc(0, func() { log = append(log, "armed by proc") })
	})
	e.RunUntil(10)
	e.AfterFuncAt(20, func() { log = append(log, "first") })
	e.AfterFuncAt(20, func() { p.Resume() })
	e.AfterFuncAt(20, func() { log = append(log, "third") })
	before := e.Stats().Handoffs
	e.RunUntil(30)
	want := []string{"first", "proc", "third", "armed by proc"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("order %v, want %v", log, want)
	}
	if h := e.Stats().Handoffs - before; h != 1 {
		t.Fatalf("Resume counted %d hand-offs, want 1", h)
	}
	if !p.Done() {
		t.Fatal("the resumed proc did not run to its end")
	}
	e.AfterFunc(0, p.Resume) // finished: nothing to run
	e.RunFor(1)
	if h := e.Stats().Handoffs - before; h != 1 {
		t.Fatalf("Resume of a finished proc counted a hand-off")
	}
}

// Handoffs counts proc resumes: the spawn kick plus one per wakeup, whether
// or not another proc ran in between.
func TestStatsCountHandoffs(t *testing.T) {
	for procs, want := range map[int]uint64{1: 11, 2: 22} {
		e := NewEngine(1)
		for i := 0; i < procs; i++ {
			d := Duration(10 + i) // two procs alternate
			e.Spawn("sleeper", func(p *Proc) {
				for i := 0; i < 10; i++ {
					p.Sleep(d)
				}
			})
		}
		e.Run()
		if got := e.Stats().Handoffs; got != want {
			t.Errorf("%d procs sleeping 10 times each: %d hand-offs, want %d", procs, got, want)
		}
	}
}
