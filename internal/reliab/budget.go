package reliab

import "virtnet/internal/sim"

// Budget is a token bucket: each use spends a token, tokens return at a
// fixed rate, and an empty bucket denies. Whatever it gates — the serving
// gateway's hedges — stays within a burst of capacity and a sustained rate
// of one per refill, no matter how slow everything gets.
type Budget struct {
	capacity int
	period   sim.Duration
	tokens   int
	last     sim.Time // time refill accrues from while below capacity
}

// NewBudget returns a full bucket of capacity tokens that regains one every
// refill of virtual time.
func NewBudget(capacity int, refill sim.Duration) *Budget {
	return &Budget{capacity: capacity, period: refill, tokens: capacity}
}

func (b *Budget) refill(now sim.Time) {
	if b.tokens >= b.capacity {
		b.last = now
		return
	}
	for b.last.Add(b.period) <= now && b.tokens < b.capacity {
		b.last = b.last.Add(b.period)
		b.tokens++
	}
	if b.tokens >= b.capacity {
		b.last = now
	}
}

// Allow spends one token if available.
func (b *Budget) Allow(now sim.Time) bool {
	b.refill(now)
	if b.tokens <= 0 {
		return false
	}
	b.tokens--
	return true
}
