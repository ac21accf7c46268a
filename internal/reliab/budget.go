package reliab

import "virtnet/internal/sim"

// BudgetConfig sizes a retry token bucket.
type BudgetConfig struct {
	// Capacity is the bucket size: the burst of retries allowed back to
	// back before the peer must refill (default 3 — the reissue bound the
	// pre-budget code used per fragment, now shared per peer).
	Capacity int
	// Refill returns one token every Refill of virtual time (default
	// 250 ms), bounding the long-run retry rate at 1/Refill.
	Refill sim.Duration
}

func (c BudgetConfig) withDefaults() BudgetConfig {
	if c.Capacity <= 0 {
		c.Capacity = 3
	}
	if c.Refill <= 0 {
		c.Refill = 250 * sim.Millisecond
	}
	return c
}

// Budget is a per-peer token-bucket retry budget: each retry spends a
// token, tokens return at a fixed rate, and an empty bucket denies the
// retry. Retry storms are impossible by construction — no matter how many
// sends bounce, the sustained retry rate toward one peer cannot exceed
// 1/Refill.
type Budget struct {
	cfg    BudgetConfig
	tokens int
	last   sim.Time // time refill accrues from while below capacity
}

// NewBudget returns a full bucket.
func NewBudget(cfg BudgetConfig) *Budget {
	cfg = cfg.withDefaults()
	return &Budget{cfg: cfg, tokens: cfg.Capacity}
}

func (b *Budget) refill(now sim.Time) {
	if b.tokens >= b.cfg.Capacity {
		b.last = now
		return
	}
	for b.last.Add(b.cfg.Refill) <= now && b.tokens < b.cfg.Capacity {
		b.last = b.last.Add(b.cfg.Refill)
		b.tokens++
	}
	if b.tokens >= b.cfg.Capacity {
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

// Tokens reports the tokens available at virtual time now.
func (b *Budget) Tokens(now sim.Time) int {
	b.refill(now)
	return b.tokens
}

// Full reports whether the bucket is back at capacity at virtual time now.
// A full bucket is indistinguishable from a new one, so an owner keeping one
// per peer may drop it.
func (b *Budget) Full(now sim.Time) bool { return b.Tokens(now) >= b.cfg.Capacity }
