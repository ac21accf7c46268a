package sim

import (
	"testing"
)

// The property test drives the timer wheel and a straightforward
// (time, seq) min-queue reference implementation with an identical random
// sequence of Reset / ResetAt / Stop operations — including timers that
// re-arm themselves from inside their own callback — and asserts that both
// fire the same callbacks at the same virtual times in the same order, with
// the same activity counters. The reference model is the engine's ordering
// contract in its plainest form: events fire in ascending (time, seq), where
// seq is a global counter incremented on every arm.

type refEvent struct {
	t   Time
	seq uint64
	id  int
}

// refModel is the reference scheduler: an unsorted list popped by linear
// minimum scan (populations stay small enough that O(n²) is irrelevant). Its
// counters are what Engine.Stats must report: arms, successful stops, fires
// and the most events ever queued at once.
type refModel struct {
	now   Time
	seq   uint64
	evs   []refEvent
	stats Stats
}

func (m *refModel) arm(at Time, id int) uint64 {
	m.seq++
	m.evs = append(m.evs, refEvent{t: at, seq: m.seq, id: id})
	m.stats.Scheduled++
	m.stats.MaxPending = max(m.stats.MaxPending, len(m.evs))
	return m.seq
}

// head returns the earliest queued time.
func (m *refModel) head() (Time, bool) {
	if len(m.evs) == 0 {
		return 0, false
	}
	t := m.evs[0].t
	for _, ev := range m.evs[1:] {
		t = min(t, ev.t)
	}
	return t, true
}

// stop removes the entry armed with the given seq, reporting whether it was
// still queued.
func (m *refModel) stop(seq uint64) bool {
	for i := range m.evs {
		if m.evs[i].seq == seq {
			m.evs[i] = m.evs[len(m.evs)-1]
			m.evs = m.evs[:len(m.evs)-1]
			m.stats.Cancelled++
			return true
		}
	}
	return false
}

// popMin removes and returns the earliest (time, seq) entry at or before
// bound.
func (m *refModel) popMin(bound Time) (refEvent, bool) {
	best := -1
	for i := range m.evs {
		if m.evs[i].t > bound {
			continue
		}
		if best < 0 || m.evs[i].t < m.evs[best].t ||
			(m.evs[i].t == m.evs[best].t && m.evs[i].seq < m.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return refEvent{}, false
	}
	ev := m.evs[best]
	m.evs[best] = m.evs[len(m.evs)-1]
	m.evs = m.evs[:len(m.evs)-1]
	m.stats.Fired++
	return ev, true
}

// wantBound is NextEventBound's contract, the 256 ns frame rule, for an
// earliest event at head with the clock at now: head itself when both share
// a 256 ns frame; otherwise the start of head's frame at the widest 256^k
// ns granularity where the two still differ, and never before now.
func wantBound(head, now Time) Time {
	if head>>8 == now>>8 {
		return head
	}
	span := Time(256)
	for (head^now)>>8 >= span {
		span <<= 8
	}
	return max(head/span*span, now)
}

type fire struct {
	id int
	at Time
}

// propHandle pairs an engine timer with its reference-model state. Chain
// counters are deliberately duplicated (eng*/mod*) so neither side's
// behavior can leak into the other and mask a divergence.
type propHandle struct {
	id       int
	tm       *Timer
	modSeq   uint64 // reference arm for the pending fire; 0 = unarmed
	engChain int
	modChain int
	stride   Duration
}

// armed reports whether tm has an arm that has not fired: what Stop and Reset
// cancel.
func armed(tm *Timer) bool { return tm.ev != nil && tm.ev.gen == tm.gen }

// driveProperty feeds one operation stream (arbitrary bytes) to both
// schedulers and compares every observable: fire order, fire times, whether
// Stop and Reset cancel an arm, and after each run step the Pending count, the
// Scheduled/Cancelled/Fired/MaxPending counters, and NextEventBound, which
// must equal the 256 ns frame rule applied to the reference's earliest event
// and the clock (wantBound).
func driveProperty(t *testing.T, data []byte) {
	t.Helper()
	e := NewEngine(0)
	model := &refModel{}
	var engLog, modLog []fire
	var handles []*propHandle
	byID := map[int]*propHandle{}
	nextID := 0

	// next pulls one byte from the stream (zero when exhausted).
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	// dur builds a delay spanning every wheel level: an exponential
	// magnitude (1 ns … 2^59 ns, about 18 years) plus low-bit jitter. A
	// chain re-arms at most five times after its last arm from the stream.
	dur := func() Duration {
		k := uint(next()) % 60
		return Duration(uint64(1)<<k | uint64(next()))
	}
	pick := func() *propHandle {
		if len(handles) == 0 {
			return nil
		}
		return handles[int(next())%len(handles)]
	}
	mkTimer := func(h *propHandle) *Timer {
		return e.NewTimer(func() {
			engLog = append(engLog, fire{id: h.id, at: e.Now()})
			if h.engChain > 0 {
				h.engChain--
				h.tm.Reset(h.stride)
			}
		})
	}
	runBoth := func(bound Time) {
		e.RunUntil(bound)
		for {
			ev, ok := model.popMin(bound)
			if !ok {
				break
			}
			model.now = ev.t
			modLog = append(modLog, fire{id: ev.id, at: ev.t})
			h := byID[ev.id]
			if h.modSeq == ev.seq {
				h.modSeq = 0
			}
			if h.modChain > 0 {
				h.modChain--
				h.modSeq = model.arm(model.now.Add(h.stride), h.id)
			}
		}
		if bound > model.now {
			model.now = bound
		}
		if got, want := e.wheelLive, len(model.evs); got != want {
			t.Fatalf("after run to %d: %d events queued, reference has %d live events", bound, got, want)
		}
		got := e.Stats()
		if want := model.stats; got.Scheduled != want.Scheduled || got.Cancelled != want.Cancelled ||
			got.Fired != want.Fired || got.MaxPending != want.MaxPending {
			t.Fatalf("after run to %d: Stats %+v, reference scheduled %d cancelled %d fired %d max pending %d",
				bound, got, want.Scheduled, want.Cancelled, want.Fired, want.MaxPending)
		}
		nb, ok := e.NextEventBound()
		head, live := model.head()
		switch {
		case ok != live:
			t.Fatalf("after run to %d: NextEventBound ok=%v, reference has %d live events", bound, ok, len(model.evs))
		case ok && nb != wantBound(head, e.Now()):
			t.Fatalf("after run to %d: NextEventBound %d, clock %d, earliest event %d, want %d",
				bound, nb, e.Now(), head, wantBound(head, e.Now()))
		}
	}

	steps := 0
	for pos < len(data) {
		switch next() % 8 {
		case 0, 1: // one-shot Reset
			d := dur()
			h := &propHandle{id: nextID}
			nextID++
			h.tm = mkTimer(h)
			h.tm.Reset(d)
			h.modSeq = model.arm(model.now.Add(d), h.id)
			handles = append(handles, h)
			byID[h.id] = h
		case 2: // one-shot ResetAt
			d := dur()
			h := &propHandle{id: nextID}
			nextID++
			h.tm = mkTimer(h)
			h.tm.ResetAt(e.Now().Add(d))
			h.modSeq = model.arm(model.now.Add(d), h.id)
			handles = append(handles, h)
			byID[h.id] = h
		case 3: // Stop a random handle
			if h := pick(); h != nil {
				got := armed(h.tm)
				h.tm.Stop()
				want := false
				if h.modSeq != 0 {
					want = model.stop(h.modSeq)
					h.modSeq = 0
				}
				// A pending chain re-arm is cancelled too.
				h.engChain, h.modChain = 0, 0
				if got != want {
					t.Fatalf("op %d: Stop() cancelled %v, reference says %v", pos, got, want)
				}
			}
		case 4, 5: // Reset a random handle
			if h := pick(); h != nil {
				d := dur()
				got := armed(h.tm)
				h.tm.Reset(d)
				want := false
				if h.modSeq != 0 {
					want = model.stop(h.modSeq)
				}
				h.modSeq = model.arm(model.now.Add(d), h.id)
				if got != want {
					t.Fatalf("op %d: Reset() cancelled %v, reference says %v", pos, got, want)
				}
			}
		case 6: // self-rescheduling chain timer
			n := int(next())%5 + 1
			h := &propHandle{id: nextID, engChain: n, modChain: n, stride: dur()}
			nextID++
			h.tm = mkTimer(h)
			d := dur()
			h.tm.Reset(d)
			h.modSeq = model.arm(model.now.Add(d), h.id)
			handles = append(handles, h)
			byID[h.id] = h
		case 7: // advance both schedulers, by less than 2^40 ns: a fuzz
			// input holds at most 2,730 advances, so the clock stays
			// below 2^52 and every arm below 2^63
			runBoth(e.Now().Add(dur() % (1 << 40)))
			steps++
		}
	}
	// Drain: run to the earliest queued event, repeatedly, to flush chains
	// that re-arm during the drain. Each step fires at least one event.
	for e.wheelLive > 0 || len(model.evs) > 0 {
		head, _ := model.head()
		runBoth(head)
	}

	if len(engLog) != len(modLog) {
		t.Fatalf("fired %d events, reference fired %d", len(engLog), len(modLog))
	}
	for i := range engLog {
		if engLog[i] != modLog[i] {
			t.Fatalf("fire %d: engine %+v, reference %+v (steps=%d)", i, engLog[i], modLog[i], steps)
		}
	}
}

// TestWheelMatchesReferenceHeap runs the property over several fixed
// pseudo-random operation streams.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		// splitmix64 stream: decouples the op stream from math/rand so the
		// test is stable across Go releases.
		s := seed
		data := make([]byte, 4096)
		for i := range data {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			data[i] = byte(z ^ (z >> 31))
		}
		driveProperty(t, data)
	}
}

// FuzzWheelVsReference lets the fuzzer search for operation streams that
// break the equivalence.
func FuzzWheelVsReference(f *testing.F) {
	f.Add([]byte{0, 10, 3, 7, 200, 42, 6, 1, 5, 5, 7, 33, 2, 100, 9})
	f.Add([]byte{7, 255, 0, 33, 33, 4, 0, 1, 7, 8, 3, 0, 6, 2, 250, 250, 7, 40})
	// Arms on levels 5, 6 and 7 (2^42, 2^50, 2^57 ns out), a chain with a
	// 2^58 ns stride, a Reset to 2^59 ns, a Stop and two advances.
	f.Add([]byte{0, 42, 7, 0, 50, 9, 2, 57, 1, 6, 3, 58, 3, 44, 5, 7, 33, 0, 4, 0, 59, 0, 3, 1, 7, 39, 255})
	// Arms at 255, 256, 2,303 and 4,096 ns, advances to 2,303 and 3,582,
	// arms at 4,095, 4,096 and 3,583 there, and steps the clock one
	// nanosecond at a time across the 4,096 ns frame (level 0's) and the
	// 256 ns one (the bound's), then arms at +255 and +256 from 4,096.
	f.Add([]byte{0, 7, 127, 0, 8, 0, 0, 12, 0, 2, 11, 255, 7, 11, 255, 7, 10, 255,
		0, 9, 1, 0, 9, 2, 0, 0, 0, 7, 0, 0, 7, 8, 255, 7, 0, 0, 7, 0, 0,
		0, 7, 127, 0, 8, 0, 7, 7, 127, 7, 0, 0})
	// Arms on each side of the level boundaries: 4,096 (level 1) and 2,303
	// (level 0), 2^20 (level 2) and 2^19+255 (level 1), 2^28 (level 3) and
	// 2^27+255 (level 2); a chain of 2^59 ns strides whose later arms sit on
	// level 7 (bit 60 and up); then advances of 2^12, 2^20, 2^28+1 and
	// 2^11+255 ns, each of which cascades a boundary slot.
	f.Add([]byte{0, 12, 0, 0, 11, 255, 0, 20, 0, 0, 19, 255, 0, 28, 0, 0, 27, 255,
		6, 4, 59, 0, 59, 0, 7, 12, 0, 7, 20, 0, 7, 28, 1, 7, 11, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		driveProperty(t, data)
	})
}
