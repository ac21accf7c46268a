package sim

// Proc is a cooperative simulated thread: a goroutine that runs only while
// it holds the engine's run token. Procs model application processes, POSIX
// threads, OS kernel threads, and NI firmware loops. A Proc may touch
// simulated state freely while running; it relinquishes control by sleeping
// or blocking on a Cond.
type Proc struct {
	e    *Engine
	name string
	// token wakes the goroutine: a resume (runProc set resumed and made it
	// the loop runner) or a kill. endAck reports a killed goroutine's unwind
	// back to the synchronous killer.
	token   chan struct{}
	endAck  chan struct{}
	resumed bool
	done    bool
	killed  bool
	// waiting and waitGen track the Cond the proc is parked on so a
	// timeout can cancel exactly the wait it was armed for.
	waiting *Cond
	waitGen uint64
	// resumeT is the proc's reusable wakeup timer: every Sleep, Yield,
	// Signal and spawn kick re-arms it instead of allocating a closure.
	resumeT *Timer
	// tmoT is the reusable WaitTimeout timer (created on first use);
	// tmoGen records the waitGen it was armed for and timedOut carries the
	// verdict back to the waiter.
	tmoT     *Timer
	tmoGen   uint64
	timedOut bool
}

type procKilled struct{}

// Spawn creates a simulated thread that begins executing fn at the current
// virtual time (after already-queued events at this time).
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, token: make(chan struct{}), endAck: make(chan struct{})}
	p.resumeT = e.NewTimer(func() { e.runProc(p) })
	e.procs = append(e.procs, p)
	go func() {
		<-p.token
		if !p.killed {
			runBody(p, fn)
		}
		p.done = true
		if p.killed && e.runner != p {
			// Killed while parked: the killer is active and waiting for the
			// unwind to finish.
			p.endAck <- struct{}{}
			return
		}
		// The body finished (or was killed) while this goroutine held the
		// run token: hand the loop to the driver and exit.
		e.driverCh <- struct{}{}
	}()
	p.resumeT.Reset(0)
	return p
}

func runBody(p *Proc, fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); ok {
				return
			}
			panic(r)
		}
	}()
	fn(p)
}

// Kill terminates a parked proc immediately: the next time it would resume
// it unwinds instead, running no further simulated work (crash semantics —
// no cleanup executes in the victim). Any Cond registration is removed so
// signals are not wasted on the corpse. Killing the currently running proc
// is not allowed; crashes are driven from event context or from another
// proc, where the victim is parked.
//
// With run-loop migration the victim's goroutine may currently be stepping
// the event loop on behalf of the engine (its body parked in yield). In that
// case the kill is asynchronous by necessity: the flag is set and the victim
// unwinds as soon as the event that invoked Kill completes — still before
// any further simulated work runs in it.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	if p.e.cur == p {
		panic("sim: Kill of the running proc")
	}
	if p.waiting != nil {
		p.waiting.remove(p)
		p.waiting = nil
	}
	p.killed = true
	if p.e.runner == p {
		// The victim's goroutine is executing this very Kill (an event fired
		// from its yield loop). Its loop notices the flag when the current
		// event returns and unwinds, handing the loop to the driver.
		return
	}
	p.token <- struct{}{}
	<-p.endAck
}

// Killed reports whether the proc was terminated by Kill or Shutdown.
func (p *Proc) Killed() bool { return p.killed }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Done reports whether the proc has finished.
func (p *Proc) Done() bool { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.Now() }

// yield parks the proc's body and turns its goroutine into the engine's
// loop runner: it steps events — handing the loop off whenever one resumes
// another proc — until one resumes this proc, at which point it returns to
// the body with no goroutine switch at all. If the driver's bound is
// exhausted first, the loop is handed back to the driver and the goroutine
// parks until a later event resumes (or kills) it.
func (p *Proc) yield() {
	e := p.e
	p.resumed = false
	e.cur = nil
	for !p.resumed {
		if p.killed {
			// Killed by an event this loop just fired: unwind, running no
			// further events; the spawn wrapper hands the loop back.
			panic(procKilled{})
		}
		if e.stepBounded(e.bound) {
			continue
		}
		// Nothing left within the driver's bound: hand the loop back and
		// park until resumed.
		e.driverCh <- struct{}{}
		<-p.token
		if p.killed {
			panic(procKilled{})
		}
	}
	e.cur = p
}

// Sleep suspends the proc for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	p.resumeT.Reset(d)
	p.yield()
}

// Yield lets other events and procs scheduled at the current time run.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the proc until its wakeup fires. Whoever owns the wait arms
// the wakeup with WakeAt — before parking or at any point while the proc is
// parked, from event context or another proc — and may move it as often as
// it likes; with nothing armed the proc stays parked. Parking and re-arming
// reuse the proc's wakeup timer, so neither allocates.
func (p *Proc) Park() { p.yield() }

// WakeAt arms (or moves) the wakeup of a proc that is in, or about to
// enter, Park so that it resumes at absolute time t (>= Now()). It must not
// be called on a proc suspended any other way: Sleep and Cond waits own the
// same timer.
func (p *Proc) WakeAt(t Time) { p.resumeT.ResetAt(t) }

// Unwake disarms a wakeup set by WakeAt, leaving the proc parked until the
// next WakeAt.
func (p *Proc) Unwake() { p.resumeT.Stop() }

// Cond is a condition-variable analogue for simulated threads. Waiters are
// woken in FIFO order. A zero Cond bound with NewCond is ready to use. The
// waiter list keeps its backing array across wakes, so a wait → wake cycle
// allocates nothing once the list has reached its working size.
type Cond struct {
	e       *Engine
	waiters []*Proc
}

// NewCond returns a condition variable on engine e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait parks p until another activity calls Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.waiting = c
	p.waitGen++
	p.yield()
	p.waiting = nil
}

// WaitTimeout parks p until a signal or until d elapses. It reports whether
// the proc was signalled (true) or timed out (false). The timeout timer is
// per-proc and reusable: the wait arms it with Reset and disarms it on wake,
// so repeated timed waits allocate nothing.
func (c *Cond) WaitTimeout(p *Proc, d Duration) bool {
	if p.tmoT == nil {
		p.tmoT = p.e.NewTimer(func() {
			// waitGen identifies the exact wait this arm belongs to, so a
			// stale firing (the waiter was signalled and has moved on)
			// does nothing.
			if p.waiting != nil && p.waitGen == p.tmoGen {
				p.waiting.remove(p)
				p.waiting = nil
				p.timedOut = true
				p.e.runProc(p)
			}
		})
	}
	c.waiters = append(c.waiters, p)
	p.waiting = c
	p.waitGen++
	p.tmoGen = p.waitGen
	p.timedOut = false
	p.tmoT.Reset(d)
	p.yield()
	p.waiting = nil
	p.tmoT.Stop()
	return !p.timedOut
}

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return
		}
	}
}

// Signal wakes the oldest waiter, if any. It reports whether one was woken.
// The waiter resumes via a zero-delay event, after the caller yields.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	p.waiting = nil
	p.resumeT.Reset(0)
	return true
}

// Broadcast wakes all waiters and reports how many were woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, p := range c.waiters {
		p.waiting = nil
		p.resumeT.Reset(0)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
	return n
}

// Waiters reports the number of procs currently parked on the cond.
func (c *Cond) Waiters() int { return len(c.waiters) }

// Semaphore is a counting semaphore for simulated threads.
type Semaphore struct {
	n    int
	cond *Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	return &Semaphore{n: n, cond: NewCond(e)}
}

// Acquire takes a permit, blocking the proc until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// TryAcquire takes a permit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.n == 0 {
		return false
	}
	s.n--
	return true
}

// Release returns a permit and wakes one waiter.
func (s *Semaphore) Release() {
	s.n++
	s.cond.Signal()
}

// Available reports the current number of permits.
func (s *Semaphore) Available() int { return s.n }
