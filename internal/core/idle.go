package core

import (
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Idle-poll elision. A thread waiting for a message polls its endpoint every
// tick; while the receive queues are empty each of those polls is an engine
// event and a proc hand-off that changes nothing. IdlePoll keeps the
// polling cost model — every virtual timestamp is the one the literal loop
// would have produced — and removes the work: the proc parks, and whatever
// could change what a poll sees (a deposit, a residency transition, a freeze,
// the caller's bound) moves its wakeup to the exact instant at which the
// literal loop would first have noticed. PollBackoff, whose tick backs off,
// keeps even the events and removes only the hand-offs (see its comment).
//
// While nothing changes the literal loop sits on a lattice. An iteration that
// starts at t charges the shared-endpoint lock, then the poll cost for where
// the endpoint resides, pops at t+lock+cost, finds nothing and sleeps tick:
// the next one starts at t+lock+cost+tick. The loop's own sleeps end at three
// kinds of instant, which is all a parked proc needs to be put back on:

type idlePhase uint8

const (
	phTop    idlePhase = iota // an iteration starts: start := Now(), then the poll
	phCharge                  // the shared lock is held: residency check, poll charge
	phPop                     // the poll charge is paid: pop, dispatch, decide
)

// idler is the proc parked in IdlePoll or PollBackoff on an endpoint, and
// where the literal loop it stands for would be.
type idler struct {
	p     *sim.Proc
	tick  sim.Duration
	until sim.Time
	// The literal loop's pending sleep ends at `at` and continues in phase;
	// the iteration that sleep belongs to started at start (== at for phTop).
	at    sim.Time
	phase idlePhase
	start sim.Time
	// What iterations starting at or after `at` will be charged, sampled when
	// the wakeup was last worked out. Every change to them comes through
	// rephase, which first moves at/phase/start up to the present under the
	// old values — so elapsed iterations are always accounted at the cost
	// that was in force when they ran.
	lock, cost sim.Duration
	moved      bool
	// wake is the armed wakeup (sim.Never: none).
	wake sim.Time
	// backoff marks a PollBackoff wait, whose shadow timer stands in for the
	// loop's sleeps: phase is where the shadow fires next, b holds the
	// loop's tick, and mark the endpoint's stir count when the caller last
	// tested its exit condition.
	backoff bool
	b       Backoff
	mark    uint64
}

// taken reports whether another proc is parked on the endpoint — or was
// killed parked in PollBackoff, whose shadow timer has an event left to fire.
func (w *idler) taken() bool {
	return w.p != nil && (!w.p.Done() || w.backoff)
}

// IdlePoll polls the endpoint every tick until a poll dispatches something
// or starts at or after until (sim.Never: no bound). It returns that poll's
// dispatch count and start time, and is in every observable respect — pop
// times, handler order, the virtual time it returns at — exactly
//
//	for {
//		start := p.Now()
//		n := ep.Poll(p)
//		if n > 0 || start >= until {
//			return n, start
//		}
//		p.Sleep(tick)
//	}
//
// except that polls which provably find nothing are not executed. The caller
// must be able to tolerate that: whatever it waits for may only change inside
// a handler this endpoint dispatches.
func (ep *Endpoint) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (n int, start sim.Time) {
	w := &ep.idle
	for {
		start = p.Now()
		n = ep.pollOnce(p)
		for {
			if n > 0 || start >= until {
				return n, start
			}
			if tick <= 0 || w.taken() {
				// No lattice to skip along, or another thread already parked
				// here: tick literally.
				p.Sleep(tick)
				break
			}
			var phase idlePhase
			phase, start = ep.park(p, tick, until)
			if phase == phTop {
				break
			}
			// Woken inside an iteration whose earlier sleeps were skipped.
			if phase == phCharge {
				ep.pollCharge(p)
			}
			n = ep.drain(p)
		}
	}
}

// Backoff is the tick of a backed-off wait: Base to begin with and again
// after every turn that dispatched something, doubled after a turn that did
// not while it is still below Cap. The tick is compared before it is
// doubled, so it may overshoot the cap: 300 ns doubles to 153.6 µs against
// 100 µs, and stays there. Each wait starts from its own copy.
type Backoff struct {
	Base, Cap sim.Duration
	tick      sim.Duration // 0: not begun, stands for Base
}

// grow is the tick after a turn that found nothing.
func (b *Backoff) grow() {
	if b.tick < b.Cap {
		b.tick *= 2
	}
}

// PollBackoff runs a backed-off wait until its caller has something new to
// test. The caller loops on its own exit test, with whatever abort checks it
// needs, around each call; b carries the tick from call to call. Together
// they are in every observable respect — every engine event at its (time,
// seq), pop times, handler order, the instant the loop ends — exactly
//
//	tick := b.Base
//	for !exit() {
//		n := ep.Poll(p)
//		if n == 0 {
//			p.Sleep(tick)
//			if tick < b.Cap {
//				tick *= 2
//			}
//		} else {
//			tick = b.Base
//		}
//	}
//
// A call parks the proc and hands the loop's sleeps, from the turn that
// starts now on, to the endpoint's shadow timer: it fires where each of them
// would have ended, charges the shared lock and the poll as the loop does,
// and resumes the proc in that event's place only where the loop has work —
// at a pop that finds a message, which the call dispatches before it
// returns, or at the top of a turn at which exit() could read something
// new, where the call returns for the caller to test. That is the case
// once another thread has dispatched on the endpoint or is dispatching
// there, once the NI has taken a send queue from full to not full
// (EndpointImage.OnSendSpace) or a translation was mapped or handed a credit
// back, once the endpoint is frozen, and at every top while the endpoint has
// a SetWaitAbort predicate, which nothing rings when it flips. The proc is
// handed control once per wait, not twice per turn; the events stay, so
// nothing else can tell.
func (ep *Endpoint) PollBackoff(p *sim.Proc, b *Backoff) {
	if b.tick == 0 {
		b.tick = b.Base
	}
	w := &ep.idle
	if b.tick <= 0 || ep.moved || w.taken() {
		// No tick to wait out, a frozen endpoint's free poll, or another
		// thread already parked here: a literal turn.
		if ep.pollOnce(p) > 0 {
			b.tick = b.Base
			return
		}
		p.Sleep(b.tick)
		b.grow()
		return
	}
	*w = idler{p: p, backoff: true, b: *b, mark: ep.stirs}
	ep.shadowPoll()
	p.Park()
	w.p = nil
	b.tick = w.b.tick
	if w.phase == phTop {
		return
	}
	ep.drain(p)
	b.tick = b.Base
}

// shadow fires where a sleep of a parked PollBackoff wait's literal loop
// would end and does what the loop does there (see PollBackoff).
func (ep *Endpoint) shadow() {
	w := &ep.idle
	if w.p.Done() {
		w.p = nil // killed while parked
		return
	}
	switch w.phase {
	case phTop:
		if ep.stirs != w.mark || ep.dispatching > 0 || ep.moved || ep.waitAbort != nil {
			w.p.Resume()
			return
		}
		ep.shadowPoll()
	case phCharge:
		ep.shadowCharge()
	case phPop:
		if vis, ok := ep.seg.EP.NextVisible(); ok && vis <= ep.b.Node.E.Now() && !ep.moved {
			w.p.Resume()
			return
		}
		w.phase = phTop
		ep.shadowT.Reset(w.b.tick)
		w.b.grow()
	}
}

// shadowPoll starts a turn's poll on the shadow timer: the shared lock, then
// the poll charge.
func (ep *Endpoint) shadowPoll() {
	if ep.mode == Shared {
		ep.idle.phase = phCharge
		ep.shadowT.Reset(sharedLockCost)
		return
	}
	ep.shadowCharge()
}

// shadowCharge arms the poll charge for where the endpoint resides now.
func (ep *Endpoint) shadowCharge() {
	ep.idle.phase = phPop
	if ep.seg.Resident() {
		ep.shadowT.Reset(nic.PollResident)
	} else {
		ep.shadowT.Reset(nic.PollHost)
	}
}

// park stands in for the literal loop's p.Sleep(tick) after an empty poll. It
// returns at the first instant the literal loop could observe something — the
// phase tells the caller where in the iteration that is, start when the
// iteration began.
func (ep *Endpoint) park(p *sim.Proc, tick sim.Duration, until sim.Time) (idlePhase, sim.Time) {
	w := &ep.idle
	top := p.Now().Add(tick)
	*w = idler{p: p, tick: tick, until: until, at: top, phase: phTop, start: top, wake: sim.Never}
	ep.rephase()
	p.Park()
	w.p = nil
	w.advance(p.Now())
	if w.at != p.Now() {
		panic("core: IdlePoll woke off the poll lattice")
	}
	return w.phase, w.start
}

// hookIdle points the NI's deposit and send-space doorbells and the segment
// driver's residency notification at this endpoint, and makes its shadow
// timer.
func (ep *Endpoint) hookIdle() {
	ep.seg.EP.OnDeliver = func(*nic.RecvMsg) { ep.rephase() }
	ep.seg.EP.OnSendSpace = func() { ep.stirs++ }
	ep.seg.OnResidency = ep.rephase
	ep.shadowT = ep.b.Node.E.NewTimer(ep.shadow)
}

// rephase re-derives the parked proc's wakeup after anything a poll could
// observe has changed. It runs in the context of whoever made the change (NI
// firmware, the remap thread, a migrating or sibling thread); the parked proc
// itself is not resumed until the instant worked out here.
func (ep *Endpoint) rephase() {
	w := &ep.idle
	if w.p == nil || w.backoff {
		return
	}
	if w.p.Done() {
		w.p = nil // killed while parked
		return
	}
	w.advance(ep.b.Node.E.Now())

	w.moved = ep.moved
	w.lock = 0
	if ep.mode == Shared {
		w.lock = sharedLockCost
	}
	w.cost = nic.PollHost
	if ep.seg.Resident() {
		w.cost = nic.PollResident
	}

	// top is the next iteration start and pend the pop instant of the
	// iteration already under way, if one is.
	top, pend, pending := w.at, sim.Time(0), false
	switch w.phase {
	case phCharge:
		pend, pending = w.at.Add(w.cost), true
		top = pend.Add(w.tick)
	case phPop:
		pend, pending = w.at, true
		top = pend.Add(w.tick)
	}
	lock, cost := w.lock, w.cost
	if w.moved {
		lock, cost = 0, 0 // a frozen endpoint's poll returns at once
	}
	period := lock + cost + w.tick

	// The first iteration that starts at or after until runs and returns.
	wake := sim.Never
	if w.until != sim.Never {
		wake = latticeCeil(top, period, w.until)
	}
	// The first pop instant at or after the head message's Visible finds it.
	// A later head cannot be popped earlier, and if someone else consumes
	// this one first the wakeup is merely early, which is always safe: the
	// proc polls, finds nothing, and parks again.
	if vis, ok := ep.seg.EP.NextVisible(); ok && !w.moved {
		pop := pend
		if !pending || pend < vis {
			pop = latticeCeil(top.Add(lock+cost), period, vis)
		}
		if pop < wake {
			wake = pop
		}
	}
	if wake == w.wake {
		return
	}
	w.wake = wake
	if wake == sim.Never {
		w.p.Unwake()
	} else {
		w.p.WakeAt(wake)
	}
}

// latticeCeil returns the first of first, first+period, first+2·period, …
// that is at or after t.
func latticeCeil(first sim.Time, period sim.Duration, t sim.Time) sim.Time {
	if t <= first {
		return first
	}
	k := (t.Sub(first) + period - 1) / period
	return first.Add(k * period)
}

// advance moves the literal loop's pending sleep forward to the first one
// that ends at or after now, under the charges sampled by the last rephase.
// Everything it steps over is an iteration that found nothing: the wakeup is
// never later than the first pop instant that could.
//
// An instant equal to now stays pending. The literal loop's event at that
// instant might have fired before the one that brought us here; resuming
// after it instead is the same-instant tie discussed in DESIGN §6.
func (w *idler) advance(now sim.Time) {
	if w.at >= now {
		return
	}
	// Finish the iteration under way.
	if w.phase == phCharge {
		w.at, w.phase = w.at.Add(w.cost), phPop
		if w.at >= now {
			return
		}
	}
	if w.phase == phPop {
		w.at, w.phase = w.at.Add(w.tick), phTop
		w.start = w.at
		if w.at >= now {
			return
		}
	}
	// Skip whole iterations, then find the place inside the one now falls in.
	lock, cost := w.lock, w.cost
	if w.moved {
		lock, cost = 0, 0
	}
	period := lock + cost + w.tick
	top := w.at.Add(now.Sub(w.at) / period * period)
	w.start = top
	switch {
	case now == top:
		w.at, w.phase = top, phTop
	case lock > 0 && now <= top.Add(lock):
		w.at, w.phase = top.Add(lock), phCharge
	case now <= top.Add(lock+cost):
		w.at, w.phase = top.Add(lock+cost), phPop
	default:
		w.at, w.phase = top.Add(period), phTop
		w.start = w.at
	}
}
