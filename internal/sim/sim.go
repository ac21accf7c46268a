// Package sim provides the discrete-event simulation kernel that underlies
// the virtual network reproduction: a virtual clock, a cancellable event
// queue, a deterministic PRNG, and cooperative simulated threads (Proc).
//
// All simulated code — NI firmware loops, OS kernel threads, application
// processes — runs under a single engine. Exactly one simulated activity
// executes at a time: events fire only on the goroutine inside Run/RunUntil,
// and a Proc is a coroutine that goroutine switches into and out of, so
// simulated state needs no locking and every run is bit-reproducible for a
// given seed.
//
// Events are kept in a hierarchical timer wheel: level 0 has 4,096
// one-nanosecond slots for the clock's current 4,096 ns frame, where most
// arms land, and seven levels of 256 slots above it cover 8 more bits of
// virtual time each, so together they span every Time. Event structs are
// recycled through a free list; a generation counter makes stale Timer
// handles inert.
// The engine fires events in strict (time, seq) order — seq is a monotonic
// schedule counter, so ties at one instant resolve in FIFO schedule order —
// and that ordering contract is what makes runs bit-reproducible.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Never is a time no clock reaches: the "no bound" value for deadlines.
const Never = Time(math.MaxInt64)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Timer wheel geometry. Level 0 has l0Slots slots of one nanosecond each,
// within the clock's current 4,096 ns frame; its occupancy is a bitmap of
// l0Slots/64 words plus a summary word with one bit per bitmap word. Levels
// 1 to wheelLevels-1 have wheelSlots slots each, covering wheelBits more
// bits of virtual time per level: a level-k slot spans 2^(12+8(k-1)) ns, so
// the eight levels cover 12+7·8 = 68 ≥ 64 bits, every Time.
const (
	l0Bits      = 12
	l0Slots     = 1 << l0Bits
	l0Mask      = l0Slots - 1
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// The level-0 summary word must cover every bitmap word: a wider level 0
// fails to compile here (the constant overflows uint) instead of indexing
// past the summary at run time.
const _ uint = 64 - l0Slots/64

// levelShift is the bit at which level >= 1's slot index starts.
func levelShift(level int) uint { return l0Bits + uint(level-1)*wheelBits }

// boundBits is NextEventBound's frame: the bound is exact within the clock's
// 2^boundBits ns frame, and a frame start beyond it. It is part of the
// contract coordinators rely on, not of the wheel's geometry.
const boundBits = 8

// event is a queued callback. Events are engine-owned and recycled through a
// free list: gen increments every time one is released, so a Timer handle
// that outlives its event (fired or stopped) can detect staleness and do
// nothing rather than corrupt an unrelated reuse.
type event struct {
	t     Time
	seq   uint64
	fn    func()
	gen   uint32
	level int8   // wheel level while queued
	slot  uint16 // slot within that level while queued
	prev  *event
	next  *event // list link in wheel slots; free-list link when free
}

// Each wheel slot holds the head of a circular doubly-linked list of events
// (nil when empty): head.prev is the tail, so a slot costs one pointer and
// appends in O(1). Level-0 lists are seq-sorted (every entry shares one
// absolute time, so seq order is firing order); higher levels are unsorted
// appends and get ordered as they cascade down. linkBefore puts ev into such
// a list just before at.
func linkBefore(ev, at *event) {
	ev.prev, ev.next = at.prev, at
	at.prev.next = ev
	at.prev = ev
}

// Timer is a reusable, cancellable callback: NewTimer returns it unarmed and
// Reset/ResetAt arm it without allocating, which is what retransmit,
// heartbeat, and timeout paths want. (Fire-and-forget callbacks use
// AfterFunc/AfterFuncAt; those are the only two ways to arm an event.)
type Timer struct {
	e   *Engine
	fn  func()
	ev  *event
	gen uint32
}

// NewTimer returns an unarmed timer that runs fn when it fires. Arm it with
// Reset. The timer may be re-armed any number of times; arming draws an
// event from the engine's pool, so steady-state use allocates nothing.
func (e *Engine) NewTimer(fn func()) *Timer { return &Timer{e: e, fn: fn} }

// InitTimer is NewTimer for a Timer that lives inside the caller's own
// struct: it makes *t an unarmed timer that runs fn, and allocates no Timer.
// If t is armed, that arm is orphaned, not cancelled: it still fires when
// due and runs the fn it was armed with, and no Stop reaches it any more.
func (e *Engine) InitTimer(t *Timer, fn func()) { *t = Timer{e: e, fn: fn} }

// Stop cancels the timer if it is armed and has not yet fired, counting it
// in Stats.Cancelled. The cancelled event is unlinked from the queue
// immediately (Pending never sees it again) and released for reuse.
func (t *Timer) Stop() {
	if t == nil || t.ev == nil || t.ev.gen != t.gen {
		return
	}
	t.e.remove(t.ev)
	t.ev = nil
	t.e.stats.Cancelled++
}

// Reset arms the timer to fire at Now()+d, cancelling any pending arm first.
// The new arm takes a fresh position in the (time, seq) order, exactly as if
// it had been freshly armed.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: timer reset with negative delay %v", d))
	}
	t.Stop()
	t.ev = t.e.armEvent(t.e.now.Add(d), t.fn)
	t.gen = t.ev.gen
}

// ResetAt arms the timer to fire at absolute time at, cancelling any pending
// arm first.
func (t *Timer) ResetAt(at Time) {
	if at < t.e.now {
		panic(fmt.Sprintf("sim: timer reset at past time %v (now %v)", at, t.e.now))
	}
	t.Stop()
	t.ev = t.e.armEvent(at, t.fn)
	t.gen = t.ev.gen
}

// Stats describes engine activity since creation: events fired, scheduled
// and cancelled, event-pool reuse (hit rate = PoolHits/(PoolHits+PoolMisses))
// and the high-water mark of live queued events. Handoffs counts proc
// resumes, each one coroutine round trip: a switch into the proc and, when
// it next suspends or exits, a switch back. Cascaded counts re-levellings:
// an event armed beyond the clock's 4,096 ns frame moves to a lower wheel
// level each time the clock enters its slot's frame, until it reaches
// level 0, and each move counts once.
type Stats struct {
	Fired      uint64
	Scheduled  uint64
	Cancelled  uint64
	PoolHits   uint64
	PoolMisses uint64
	MaxPending int
	Handoffs   uint64
	Cascaded   uint64
}

// Engine is a discrete-event simulation engine.
type Engine struct {
	now   Time
	seq   uint64
	rng   *rand.Rand
	cur   *Proc
	procs []*Proc // live procs: spawned, body not yet returned, not killed

	l0        [l0Slots]*event                          // level-0 slot heads
	l0occ     [l0Slots / 64]uint64                     // level-0 slot occupancy
	l0sum     uint64                                   // bit w set when l0occ[w] != 0
	wheel     [wheelLevels - 1][wheelSlots]*event      // level k's heads at k-1
	occ       [wheelLevels - 1][wheelSlots / 64]uint64 // their occupancy
	wheelLive int
	free      *event // event pool
	stats     Stats

	// Shard identity when this engine is one of a Coordinator's shards
	// (coord nil otherwise). PostRemote stages events through the
	// coordinator's exchange.
	coord *Coordinator
	shard int
}

// NewEngine returns an engine with virtual time 0 and a PRNG seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic PRNG. All simulated randomness
// (backoff jitter, replacement victims, workload think times) must come from
// here so runs are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Stats returns a snapshot of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// alloc takes an event from the pool, or makes one.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		e.stats.PoolHits++
		return ev
	}
	e.stats.PoolMisses++
	return &event{}
}

// release returns a no-longer-queued event to the pool, bumping its
// generation so stale Timer handles can no longer act on it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// armEvent assigns the next sequence number and queues fn at time at.
func (e *Engine) armEvent(at Time, fn func()) *event {
	e.seq++
	ev := e.alloc()
	ev.t, ev.seq, ev.fn = at, e.seq, fn
	e.insert(ev)
	e.wheelLive++
	e.stats.Scheduled++
	if e.wheelLive > e.stats.MaxPending {
		e.stats.MaxPending = e.wheelLive
	}
	return ev
}

// insert places ev in the wheel level whose frame the clock currently shares
// with ev.t: level 0 when they share the 4,096 ns frame, else the level of the
// highest bit in which they differ.
func (e *Engine) insert(ev *event) {
	var h **event
	if x := uint64(ev.t ^ e.now); x < l0Slots {
		s := uint16(ev.t) & l0Mask
		ev.level, ev.slot = 0, s
		h = &e.l0[s]
		if *h == nil {
			e.l0occ[s>>6] |= 1 << (s & 63)
			e.l0sum |= 1 << (s >> 6)
		}
	} else {
		level := (bits.Len64(x)-1-l0Bits)/wheelBits + 1
		s := uint8(ev.t >> levelShift(level))
		ev.level, ev.slot = int8(level), uint16(s)
		h = &e.wheel[level-1][s]
		if *h == nil {
			e.occ[level-1][s>>6] |= 1 << (s & 63)
		}
	}
	head := *h
	switch {
	case head == nil:
		*h = ev
		ev.prev, ev.next = ev, ev
	case ev.level > 0 || head.prev.seq < ev.seq:
		// Append: higher levels are unsorted; level 0 appends whenever the
		// new event has the largest seq, which is every fresh schedule.
		linkBefore(ev, head)
	default:
		// Out-of-seq-order level-0 insert (only from cascades): walk back
		// from the tail to keep the list seq-sorted. Reaching the head means
		// the head's seq is larger too, so ev becomes the head.
		at := head.prev
		for at != head && at.prev.seq > ev.seq {
			at = at.prev
		}
		linkBefore(ev, at)
		if at == head {
			*h = ev
		}
	}
}

// unlink removes ev from its slot list (O(1)).
func (e *Engine) unlink(ev *event) {
	s := ev.slot
	h := &e.l0[s]
	if ev.level > 0 {
		h = &e.wheel[ev.level-1][s]
	}
	e.wheelLive--
	if ev.next != ev {
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
		if *h == ev {
			*h = ev.next
		}
		return
	}
	*h = nil
	if ev.level > 0 {
		e.occ[ev.level-1][s>>6] &^= 1 << (s & 63)
	} else if e.l0occ[s>>6] &^= 1 << (s & 63); e.l0occ[s>>6] == 0 {
		e.l0sum &^= 1 << (s >> 6)
	}
}

// remove unlinks a queued event and releases it.
func (e *Engine) remove(ev *event) {
	e.unlink(ev)
	e.release(ev)
}

// lowest0 returns the lowest occupied level-0 slot, or -1.
func (e *Engine) lowest0() int {
	if e.l0sum == 0 {
		return -1
	}
	w := bits.TrailingZeros64(e.l0sum)
	return w<<6 | bits.TrailingZeros64(e.l0occ[w])
}

// lowestAbove returns the lowest occupied slot of the lowest occupied level
// above 0, or (0, -1) when every one is empty. When level 0 is empty, that
// slot holds the earliest events: level-k events share the clock's
// level-(k+1) frame, which everything on higher levels lies beyond.
func (e *Engine) lowestAbove() (level, slot int) {
	for level := 1; level < wheelLevels; level++ {
		for w, b := range e.occ[level-1] {
			if b != 0 {
				return level, w<<6 | bits.TrailingZeros64(b)
			}
		}
	}
	return 0, -1
}

// AfterFunc arranges for fn to run at Now()+d with no cancellation handle;
// a callback that may need cancelling or re-arming takes a Timer instead.
// Scheduling in the past panics.
func (e *Engine) AfterFunc(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: schedule with negative delay %v", d))
	}
	e.armEvent(e.now.Add(d), fn)
}

// AfterFuncAt is AfterFunc for an absolute deadline (>= Now()).
func (e *Engine) AfterFuncAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at past time %d (now %d)", t, e.now))
	}
	e.armEvent(t, fn)
}

// PostRemote schedules fn at absolute time at on shard dst's engine. On a
// standalone engine (or when dst is this shard) it is AfterFuncAt; across
// shards the event is staged in the coordinator's exchange and inserted at
// the next barrier in deterministic (time, srcShard, seq) order. The
// lookahead contract applies: at must be >= Now() + the coordinator's
// window, or the barrier flush will panic.
func (e *Engine) PostRemote(dst int, at Time, fn func()) {
	if e.coord == nil || dst == e.shard {
		e.AfterFuncAt(at, fn)
		return
	}
	e.coord.post(e.shard, dst, at, fn)
}

// NextEventBound returns a lower bound on the earliest pending event's time
// t, by the 256 ns frame rule: t itself when t shares the clock's 256 ns
// frame, otherwise the start of t's 256^k ns frame, where 256^k is the
// widest such frame the clock is not in (never before the clock). ok is
// false when nothing is pending. Coordinators stretch barrier windows to
// this bound, so it fixes which barrier each cross-shard event is flushed at
// and with it that event's seq; the rule is independent of the wheel's
// geometry.
func (e *Engine) NextEventBound() (Time, bool) {
	if e.wheelLive == 0 {
		return 0, false
	}
	var t Time
	if s := e.lowest0(); s >= 0 {
		// Level-0 slot heads are the global minimum (see stepBounded).
		t = e.l0[s].t
	} else {
		level, s := e.lowestAbove()
		head := e.wheel[level-1][s]
		t = head.t
		for ev := head.next; ev != head; ev = ev.next {
			t = min(t, ev.t)
		}
	}
	x := uint64(t ^ e.now)
	if x>>boundBits == 0 {
		return t, true
	}
	k := uint(bits.Len64(x)-1) / boundBits * boundBits
	return max(t&^(Time(1)<<k-1), e.now), true
}

// stepBounded fires the single earliest event if its time is <= bound,
// advancing the clock to it. It reports whether an event fired. Along the
// way it cascades higher-level slots down — relocations, not firings, which
// only ever advance the clock to frame starts at or below bound and the
// earliest event's time.
func (e *Engine) stepBounded(bound Time) bool {
	for e.wheelLive > 0 {
		if s := e.lowest0(); s >= 0 {
			// Every event in a level-0 slot shares one absolute time, and
			// the list is seq-sorted, so the head is the global minimum.
			ev := e.l0[s]
			if ev.t > bound {
				return false
			}
			e.unlink(ev)
			e.now = ev.t
			e.stats.Fired++
			fn := ev.fn
			e.release(ev)
			fn()
			return true
		}
		// Cascade the lowest occupied slot one step down. Its events are the
		// earliest queued and share its frame start, so no scan is needed:
		// past the bound, nothing fires; otherwise advance the clock to the
		// frame start and re-level them all onto lower levels, where level 0
		// applies the bound.
		level, s := e.lowestAbove()
		fs := e.wheel[level-1][s].t &^ (Time(1)<<levelShift(level) - 1)
		if fs > bound {
			return false
		}
		if fs > e.now {
			e.now = fs
		}
		e.relevel(level, s)
	}
	return false
}

// relevel empties slot s of level (>= 1) and reinserts each of its events
// relative to the current clock, in list order.
func (e *Engine) relevel(level, s int) {
	head := e.wheel[level-1][s]
	e.wheel[level-1][s] = nil
	e.occ[level-1][s>>6] &^= 1 << (s & 63)
	for ev, tail := head, head.prev; ; {
		next := ev.next
		e.stats.Cascaded++
		e.insert(ev)
		if ev == tail {
			return
		}
		ev = next
	}
}

// Run processes events until none remain. Procs blocked with no pending
// wakeup are left parked (use Shutdown to release their coroutines).
func (e *Engine) Run() {
	for e.stepBounded(Never) {
	}
}

// advanceTo moves the clock forward to t without firing anything. The caller
// has drained everything at or before t, so every queued event is later — but
// wheel levels were assigned relative to the old clock. Any slot whose frame
// the clock just entered must re-level, or a later cascade of a lower level
// would step past them and they would never fire.
func (e *Engine) advanceTo(t Time) {
	if t <= e.now {
		return
	}
	e.now = t
	for level := wheelLevels - 1; level >= 1; level-- {
		shift := levelShift(level)
		s := int(t>>shift) & wheelMask
		if head := e.wheel[level-1][s]; head != nil && head.t>>shift == t>>shift {
			e.relevel(level, s)
		}
	}
}

// RunUntil processes events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t Time) {
	for e.stepBounded(t) {
	}
	e.advanceTo(t)
}

// RunFor processes events for d of virtual time from now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// runProc transfers control to p until it suspends or exits: one coroutine
// switch in and one back, on the goroutine that is firing events. A panic in
// p's body surfaces here, and so from Run/RunUntil.
func (e *Engine) runProc(p *Proc) {
	if p.done {
		return
	}
	e.stats.Handoffs++
	e.cur = p
	if _, live := p.next(); !live {
		p.retire()
	}
	e.cur = nil
}

// Shutdown kills all live procs so their coroutines exit. The engine remains
// usable for inspection but no further events should be scheduled.
func (e *Engine) Shutdown() {
	for len(e.procs) > 0 {
		e.procs[len(e.procs)-1].unwind()
	}
}
