package reliab

import (
	"math/rand"

	"virtnet/internal/sim"
)

// The re-send backoff: 100 µs before the first retry, doubling per attempt
// up to a 20 ms cap.
const (
	backoffBase = 100 * sim.Microsecond
	backoffCap  = 20 * sim.Millisecond
)

// Delay returns the backoff before retry number attempt (0-based):
// exponential growth with equal jitter — half the nominal delay fixed,
// half uniform — so concurrent retriers desynchronize without any delay
// ever collapsing to zero. rng must be the engine's seeded PRNG so replays
// stay byte-identical; a nil rng yields the un-jittered midpoint.
func Delay(attempt int, rng *rand.Rand) sim.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	half := int64(d) / 2
	j := half / 2
	if rng != nil && half > 0 {
		j = rng.Int63n(half + 1)
	}
	return sim.Duration(half + j)
}
