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
// Events are kept in a hierarchical timer wheel (eight levels of 256 slots,
// 8 bits of virtual time each, which together span every Time). Event
// structs are recycled through a free list; a generation counter makes stale
// Timer handles inert.
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

// Timer wheel geometry: wheelLevels levels of wheelSlots slots, each level
// covering wheelBits more bits of virtual time than the one below. Level 0
// slots are single nanoseconds within the current 256 ns frame; level k
// slots cover 256^k ns, so the eight levels cover all 64 bits of a Time.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8
)

// event is a queued callback. Events are engine-owned and recycled through a
// free list: gen increments every time one is released, so a Timer handle
// that outlives its event (fired or stopped) can detect staleness and do
// nothing rather than corrupt an unrelated reuse.
type event struct {
	t     Time
	seq   uint64
	fn    func()
	gen   uint32
	level int8  // wheel level while queued
	slot  uint8 // wheel slot while queued
	prev  *event
	next  *event // list link in wheel slots; free-list link when free
}

// slotList is a doubly-linked list of events hanging off one wheel slot.
// Level-0 lists are seq-sorted (every entry shares one absolute time, so
// seq order is firing order); higher levels are unsorted appends and get
// ordered as they cascade down.
type slotList struct {
	head, tail *event
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
// it next suspends or exits, a switch back.
type Stats struct {
	Fired      uint64
	Scheduled  uint64
	Cancelled  uint64
	PoolHits   uint64
	PoolMisses uint64
	MaxPending int
	Handoffs   uint64
}

// Engine is a discrete-event simulation engine.
type Engine struct {
	now   Time
	seq   uint64
	rng   *rand.Rand
	cur   *Proc
	procs []*Proc // live procs: spawned, body not yet returned, not killed

	wheel     [wheelLevels][wheelSlots]slotList
	occ       [wheelLevels][wheelSlots / 64]uint64 // slot occupancy bitmaps
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
	e.stats.Scheduled++
	if e.wheelLive > e.stats.MaxPending {
		e.stats.MaxPending = e.wheelLive
	}
	return ev
}

// insert places ev in the wheel level whose frame the clock currently shares
// with ev.t: the level of the highest bit in which ev.t and the clock differ
// (level 0 when they differ in none).
func (e *Engine) insert(ev *event) {
	level := uint(bits.Len64(uint64(ev.t^e.now)|1)-1) / wheelBits
	slot := uint8(ev.t >> (level * wheelBits))
	ev.level, ev.slot = int8(level), slot
	l := &e.wheel[level][slot]
	switch {
	case l.tail == nil:
		l.head, l.tail = ev, ev
		ev.prev, ev.next = nil, nil
		e.occ[level][slot>>6] |= 1 << (slot & 63)
	case level > 0 || l.tail.seq < ev.seq:
		// Append: higher levels are unsorted; level 0 appends whenever the
		// new event has the largest seq, which is every fresh schedule.
		ev.prev, ev.next = l.tail, nil
		l.tail.next = ev
		l.tail = ev
	default:
		// Out-of-seq-order level-0 insert (only from cascades): walk back
		// to keep the list seq-sorted.
		at := l.tail
		for at.prev != nil && at.prev.seq > ev.seq {
			at = at.prev
		}
		ev.prev, ev.next = at.prev, at
		if at.prev != nil {
			at.prev.next = ev
		} else {
			l.head = ev
		}
		at.prev = ev
	}
	e.wheelLive++
}

// unlink removes ev from its slot list (O(1)).
func (e *Engine) unlink(ev *event) {
	l := &e.wheel[ev.level][ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		l.tail = ev.prev
	}
	if l.head == nil {
		e.occ[ev.level][ev.slot>>6] &^= 1 << (ev.slot & 63)
	}
	ev.prev, ev.next = nil, nil
	e.wheelLive--
}

// remove unlinks a queued event and releases it.
func (e *Engine) remove(ev *event) {
	e.unlink(ev)
	e.release(ev)
}

// lowestSlot returns the lowest occupied slot at level, or -1.
func (e *Engine) lowestSlot(level int) int {
	for w := range e.occ[level] {
		if b := e.occ[level][w]; b != 0 {
			return w*64 + bits.TrailingZeros64(b)
		}
	}
	return -1
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

// NextEventBound returns a conservative lower bound on the earliest
// pending event's time — exact when the earliest event sits in wheel level
// 0, the frame start of its slot otherwise. ok is false when nothing is
// pending. Coordinators use it to stretch barrier windows across idle gaps.
func (e *Engine) NextEventBound() (Time, bool) {
	if e.wheelLive == 0 {
		return 0, false
	}
	if s := e.lowestSlot(0); s >= 0 {
		// Level-0 slot heads are the global minimum (see stepBounded).
		return e.wheel[0][s].head.t, true
	}
	// The lowest occupied level holds the earliest events: level-k events
	// share now's level-(k+1) frame, which everything at higher levels lies
	// beyond. The slot's frame start bounds them from below.
	for level := 1; ; level++ {
		s := e.lowestSlot(level)
		if s < 0 {
			continue
		}
		shift := uint(level) * wheelBits
		fs := (e.now &^ (Time(1)<<(shift+wheelBits) - 1)) | Time(s)<<shift
		if fs < e.now {
			fs = e.now
		}
		return fs, true
	}
}

// stepBounded fires the single earliest event if its time is <= bound,
// advancing the clock to it. It reports whether an event fired. Along the
// way it cascades higher-level slots down — relocations, not firings, which
// only ever advance the clock to frame starts at or below the earliest
// event's time.
func (e *Engine) stepBounded(bound Time) bool {
	for e.wheelLive > 0 {
		if s := e.lowestSlot(0); s >= 0 {
			// Every event in a level-0 slot shares one absolute time, and
			// the list is seq-sorted, so the head is the global minimum.
			ev := e.wheel[0][s].head
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
		// Cascade the lowest occupied level one step down. All events in a
		// level-k slot share the t>>(k*8) prefix, so after advancing the
		// clock to that frame start they all reinsert at level k-1 or below.
		for level := 1; level < wheelLevels; level++ {
			s := e.lowestSlot(level)
			if s < 0 {
				continue
			}
			l := &e.wheel[level][s]
			min := l.head
			for ev := min.next; ev != nil; ev = ev.next {
				if ev.t < min.t || (ev.t == min.t && ev.seq < min.seq) {
					min = ev
				}
			}
			if min.t > bound {
				return false
			}
			shift := uint(level) * wheelBits
			if fs := min.t &^ (1<<shift - 1); fs > e.now {
				e.now = fs
			}
			e.relevel(level, uint8(s))
			break
		}
	}
	return false
}

// relevel empties wheel slot s of level and reinserts each of its events
// relative to the current clock, in list order.
func (e *Engine) relevel(level int, s uint8) {
	l := &e.wheel[level][s]
	head := l.head
	l.head, l.tail = nil, nil
	e.occ[level][s>>6] &^= 1 << (s & 63)
	for ev := head; ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		e.wheelLive--
		e.insert(ev)
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
		shift := uint(level) * wheelBits
		s := uint8((t >> shift) & wheelMask)
		if l := &e.wheel[level][s]; l.head != nil && l.head.t>>shift == t>>shift {
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
