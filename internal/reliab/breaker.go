package reliab

import "virtnet/internal/sim"

// BreakerState enumerates the circuit-breaker states.
type BreakerState int

const (
	// Closed: traffic flows; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: calls fast-fail with ErrCircuitOpen until a probe is due.
	Open
	// HalfOpen: exactly one probe call is in flight; its outcome decides.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "?"
}

// The breaker opens on the breakerThreshold-th consecutive failure. The
// first half-open probe waits breakerCooldown; every failed probe doubles
// the wait, up to breakerMaxCooldown.
const (
	breakerThreshold   = 4
	breakerCooldown    = 25 * sim.Millisecond
	breakerMaxCooldown = sim.Second
)

// Breaker is a per-peer circuit breaker over ErrUnreachable/timeout
// failures: enough consecutive failures open it, open calls fail fast
// without touching the wire, and recovery is probed after an exponentially
// growing cooldown.
type Breaker struct {
	state    BreakerState
	fails    int
	openedAt sim.Time
	cool     sim.Duration
	m        *Metrics
}

// NewBreaker returns a closed breaker. m may be nil.
func NewBreaker(m *Metrics) *Breaker { return &Breaker{m: m} }

// State reports the current breaker state.
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether a call may be issued now. In the open state a true
// return is the half-open probe: exactly one caller gets it, and its
// Success or Failure decides the breaker's fate.
func (b *Breaker) Allow(now sim.Time) bool {
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		return false // the probe is already in flight
	}
	if now.Sub(b.openedAt) < b.cool {
		return false
	}
	b.state = HalfOpen
	b.m.Inc("breaker_halfopen")
	return true
}

// Success records a completed call (any response from the peer counts —
// even an overload NACK proves it is alive).
func (b *Breaker) Success() {
	if b.state != Closed {
		b.m.Inc("breaker_close")
	}
	b.state = Closed
	b.fails = 0
	b.cool = 0
}

// Failure records an ErrUnreachable or timeout outcome.
func (b *Breaker) Failure(now sim.Time) {
	switch b.state {
	case HalfOpen:
		b.reopen(now)
	case Closed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.reopen(now)
		}
	}
	// Failures of calls already in flight when the breaker opened change
	// nothing: the cooldown clock is already running.
}

func (b *Breaker) reopen(now sim.Time) {
	if b.cool == 0 {
		b.cool = breakerCooldown
	} else {
		b.cool *= 2
		if b.cool > breakerMaxCooldown {
			b.cool = breakerMaxCooldown
		}
	}
	b.state = Open
	b.openedAt = now
	b.m.Inc("breaker_open")
}
