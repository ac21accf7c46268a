package sim

import "iter"

// Proc is a cooperative simulated thread: a coroutine the engine switches
// into when the proc's wakeup fires and that switches back when it sleeps or
// blocks on a Cond. Procs model application processes, POSIX threads and OS
// kernel threads. A Proc may touch simulated state freely while running.
type Proc struct {
	e    *Engine
	name string
	// The coroutine (iter.Pull over the body): next switches into the proc
	// until it suspends or its body returns (ok false), suspend switches back
	// and reports false when the proc has been stopped instead of resumed,
	// stop unwinds a suspended proc — or retires one that never started —
	// before it returns.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
	idx     int // position in e.procs while live
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
// virtual time (after already-queued events at this time). The coroutine is
// created here but first entered by that event: entering it from Spawn would
// move every proc's first-run stack setup into cluster construction.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{e: e, name: name, idx: len(e.procs)}
	p.resumeT = e.NewTimer(func() { e.runProc(p) })
	p.next, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		p.suspend = suspend
		runBody(p, fn)
	})
	e.procs = append(e.procs, p)
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

// retire marks a proc whose coroutine has ended and drops it from the
// engine's list of live procs.
func (p *Proc) retire() {
	p.done = true
	live := p.e.procs
	last := live[len(live)-1]
	live[p.idx], last.idx = last, p.idx
	live[len(live)-1] = nil
	p.e.procs = live[:len(live)-1]
}

// Kill terminates a parked proc immediately: it unwinds (deferred functions
// run, in the killer's context) before Kill returns and runs no further
// simulated work (crash semantics — no cleanup executes in the victim). A
// proc that has not started yet never runs at all. Any Cond registration is
// removed so signals are not wasted on the corpse. Killing the currently
// running proc is not allowed; crashes are driven from event context or
// from another proc, where the victim is parked.
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
	p.unwind()
}

// unwind stops a live, suspended proc's coroutine: its pending suspend
// returns false and the body panics out through runBody.
func (p *Proc) unwind() {
	p.killed = true
	p.stop()
	p.retire()
}

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Done reports whether the proc has finished.
func (p *Proc) Done() bool { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.Now() }

// yield suspends the proc: a direct switch back to whoever resumed it — the
// event loop inside runProc — returning when a later event resumes the proc,
// or unwinding the body if the proc was killed instead.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(procKilled{})
	}
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

// Resume switches into a parked proc from event context and runs it until it
// next suspends, inside the event that calls it — in that event's place in
// the (time, seq) order, exactly as if the event were the proc's own wakeup.
// It lets whoever owns a wait fire the wait's timers in the proc's stead and
// hand over only when the proc has work. A proc that has finished is not
// resumed.
func (p *Proc) Resume() {
	if p.e.cur != nil {
		panic("sim: Resume from inside a proc")
	}
	p.e.runProc(p)
}

// Cond is a condition-variable analogue for simulated threads. Waiters are
// woken in FIFO order. The zero Cond is ready to use. The waiter list keeps
// its backing array across wakes, so a wait → wake cycle allocates nothing
// once the list has reached its working size.
type Cond struct {
	waiters []*Proc
}

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

// Signal wakes the oldest waiter, if any. The waiter resumes via a
// zero-delay event, after the caller yields.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	p.waiting = nil
	p.resumeT.Reset(0)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		p.waiting = nil
		p.resumeT.Reset(0)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Semaphore is a counting semaphore for simulated threads.
type Semaphore struct {
	n    int
	cond Cond
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore {
	return &Semaphore{n: n}
}

// Acquire takes a permit, blocking the proc until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	for s.n == 0 {
		s.cond.Wait(p)
	}
	s.n--
}

// Release returns a permit and wakes one waiter.
func (s *Semaphore) Release() {
	s.n++
	s.cond.Signal()
}
