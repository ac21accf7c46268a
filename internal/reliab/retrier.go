package reliab

import (
	"math/rand"

	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// Verdict is a Retrier's decision about one bounced send.
type Verdict int

const (
	// Permanent: re-sending cannot help (nic.NackReason.Permanent). Nothing
	// was charged, drawn or counted.
	Permanent Verdict = iota
	// Denied: the key reached its attempt cap or the peer's token budget is
	// empty. Counted as retry_denied; no backoff was drawn.
	Denied
	// Parked: a budget token was spent, one backoff delay was drawn and the
	// send waits for Flush. Counted as retries.
	Parked
)

// Send is a message the fabric handed back to its sender (§3.2), as the
// endpoint's return handler received it. A parked Send owns a copy of the
// payload: the handler's slice is only valid until it returns.
type Send struct {
	DstIdx, H int
	Args      [4]uint64
	Payload   []byte
	// Trace is the sampled request the send belongs to (0 = untraced). The
	// time a traced send spends parked is a child span of that trace, so a
	// retry storm shows up as backoff in the tail attribution instead of as
	// opaque waiting.
	Trace uint64

	due  sim.Time
	span *obs.Flight
}

// Sender puts a parked send back on the wire; *core.Endpoint is the one
// implementation outside tests. An empty payload makes RequestBulk a short
// request, so one method covers both message kinds.
type Sender interface {
	RequestBulk(p *sim.Proc, idx, h int, payload []byte, args [4]uint64) error
}

// attempt is the retry history of one key.
type attempt struct {
	n  int      // re-sends parked so far
	at sim.Time // when the last one was parked
}

// Retrier is the sender-side policy for returned messages, the part §3.2
// leaves to the library above the transport: classify the nack, cap the
// attempts per key, charge the peer's token budget, draw a backoff, park the
// send, and re-send it once the backoff has passed. Return handlers run
// inside Poll and must not sleep, which is why Bounce only parks and Flush —
// called from the owner's poll path, in proc context — does the sending.
//
// K names what the attempt cap applies to: a call, a stream segment, a send
// descriptor. Only a parked bounce leaves an attempt record behind; the
// owner retires it with Forget when the send is acknowledged or given up.
type Retrier[K comparable] struct {
	// Metrics receives retries, retry_denied and the backoff histogram
	// (nil records nothing).
	Metrics *Metrics
	// Tracer and Node place the backoff spans of traced sends (a nil Tracer
	// records none).
	Tracer *obs.Tracer
	Node   int

	rng      *rand.Rand
	attempts map[K]attempt
	parked   []Send
}

// maxAttempts is how many times a Retrier parks one key: a fourth bounce of
// a call, segment or descriptor is denied. Each re-send already spans the
// NI's full retry schedule plus the return-to-sender delay, so three cover
// link flaps and firmware reboots; a peer dark beyond that is down.
const maxAttempts = 3

// NewRetrier returns a Retrier that parks a key at most maxAttempts times
// and draws its backoff jitter from rng — the engine's seeded PRNG, so
// replays stay byte-identical.
func NewRetrier[K comparable](rng *rand.Rand) *Retrier[K] {
	return &Retrier[K]{rng: rng, attempts: make(map[K]attempt)}
}

// Bounce decides what becomes of a returned send. budget is the token bucket
// of the peer it was addressed to; it is charged only after the attempt cap
// has passed, and the PRNG is drawn from only once the budget has allowed the
// retry, so a denied bounce perturbs neither.
func (r *Retrier[K]) Bounce(now sim.Time, key K, reason nic.NackReason, budget *Budget, s Send) Verdict {
	if reason.Permanent(s.DstIdx) {
		delete(r.attempts, key)
		return Permanent
	}
	n := r.attempts[key].n
	if n >= maxAttempts || !budget.Allow(now) {
		r.Metrics.Inc("retry_denied")
		delete(r.attempts, key)
		return Denied
	}
	d := Delay(n, r.rng)
	r.attempts[key] = attempt{n: n + 1, at: now}
	r.Metrics.Inc("retries")
	r.Metrics.ObserveBackoff(d)
	s.Payload = append([]byte(nil), s.Payload...)
	s.due = now.Add(d)
	s.span = r.Tracer.Child(s.Trace, r.Node, r.Node, obs.KindOp, now)
	r.parked = append(r.parked, s)
	return Parked
}

// Flush re-sends, in the order they were parked, the sends whose backoff
// has passed at p's current time, and returns how many it sent. A due send
// that live rejects — its call was abandoned, its stream broke — is dropped
// instead (nil: everything is live). Sending can block and poll, so a
// return handler may park more sends while Flush runs; they stay parked.
func (r *Retrier[K]) Flush(p *sim.Proc, to Sender, live func(Send) bool) int {
	if len(r.parked) == 0 {
		return 0
	}
	now := p.Now()
	was := r.parked
	kept := was[:0]
	sent := 0
	for _, s := range was {
		switch {
		case s.due > now:
			kept = append(kept, s)
		case live != nil && !live(s):
			s.span.Drop(obs.StageBackoff, "abandoned", now)
		default:
			s.span.Mark(obs.StageBackoff, now)
			s.span.Finish(now)
			// An endpoint refuses a re-send only once it is closed or frozen
			// for migration; its owner's waits end on their own conditions.
			_ = to.RequestBulk(p, s.DstIdx, s.H, s.Payload, s.Args)
			sent++
		}
	}
	r.parked = append(kept, r.parked[len(was):]...)
	return sent
}

// NextDue returns the earliest instant a parked send falls due (sim.Never
// when nothing is parked): a wait that elides polls must end by then.
func (r *Retrier[K]) NextDue() sim.Time {
	due := sim.Never
	for i := range r.parked {
		due = min(due, r.parked[i].due)
	}
	return due
}

// Attempts reports how many times key has been parked since it was last
// forgotten.
func (r *Retrier[K]) Attempts(key K) int { return r.attempts[key].n }

// Forget retires key's attempt record: the send was acknowledged, or its
// owner gave up on it.
func (r *Retrier[K]) Forget(key K) { delete(r.attempts, key) }

// Expire forgets every key last parked more than maxAge ago — the peer went
// silent, so no acknowledgment will ever retire it — and returns how many.
func (r *Retrier[K]) Expire(now sim.Time, maxAge sim.Duration) int {
	dropped := 0
	for k, a := range r.attempts {
		if now.Sub(a.at) > maxAge {
			delete(r.attempts, k)
			dropped++
		}
	}
	return dropped
}

// Outstanding reports the attempt records and parked sends held, for leak
// invariants: both are zero once every send was acknowledged or given up.
func (r *Retrier[K]) Outstanding() (attempts, parked int) {
	return len(r.attempts), len(r.parked)
}
