// Package reliab is the reliability layer threaded through the RPC and
// serving stacks: deadline propagation with deadline-aware load shedding,
// per-peer circuit breakers, bounded admission queues, an idempotency cache
// for exactly-once effects under retry, and the token bucket that bounds the
// serving gateway's hedges.
//
// Re-sending is not this layer's job. The transport delivers a message
// exactly once or returns it to its sender (§3.2), and the NI has already
// retried it (§5.1) before it comes back: a NACKed send requeues with
// backoff, a channel retransmits and unbinds after bounded retries. So a
// return handler above the transport settles a return on the spot — a
// permanent one (nic.NackReason.Permanent) marks the peer dead, any other
// fails what the message carried — and keeps no attempt record, parked
// copy or retry budget.
//
// The paper's §5 argument is that a virtual network must stay well-behaved
// when demand exceeds physical resources; the fabric layers reproduce that
// with endpoint overcommit and NI frame scheduling, and this package is
// the application-level counterpart: under overload, work that can no
// longer meet its deadline is dropped before it wastes capacity, hedges are
// rate-limited by construction, and unreachable peers fail fast instead of
// accumulating blocked callers.
//
// Determinism: all clocks are virtual and nothing here draws randomness, so
// a soak under this layer replays byte-identically per seed.
package reliab

import (
	"encoding/binary"
	"errors"

	"virtnet/internal/sim"
)

// Typed failures. They are distinct errors so callers can tell "the peer
// is overloaded, back off" from "the peer is gone, fail over".
var (
	// ErrCircuitOpen is a client-side fast failure: the per-peer breaker
	// opened after consecutive transport failures and the call was never
	// sent.
	ErrCircuitOpen = errors.New("reliab: circuit open")
	// ErrOverload is the server-side admission NACK: the bounded handler
	// queue was full of unexpired work, so the call was rejected unserved.
	ErrOverload = errors.New("reliab: server overloaded")
	// ErrDeadlineExceeded reports that a call's absolute deadline passed
	// before it produced a result — shed at the server, or never issued.
	ErrDeadlineExceeded = errors.New("reliab: deadline exceeded")
)

// Ctx is the per-call reliability context that propagates across the wire:
// an absolute virtual-time deadline (0 = none) and an idempotency key
// (0 = none). A nested call passes its Ctx down unchanged, so the callee
// inherits exactly the remaining budget — the deadline is absolute, not a
// relative timeout that would reset at every tier.
type Ctx struct {
	Deadline sim.Time
	IdemKey  uint64
	// Trace is the flight-recorder trace id of the request this call
	// belongs to (0 = untraced). It is simulator-side identity, not wire
	// state: Encode does not serialize it (the trace context rides the
	// sampled messages themselves), but carrying it in the Ctx lets a tier
	// hand its trace to nested calls — the rpc server restores it from the
	// delivering flight before invoking a CtxProc, so a gateway's backend
	// calls join the client's trace without growing the wire header.
	Trace uint64
}

// HeaderLen is the encoded size of a Ctx on the wire.
const HeaderLen = 16

// Encode writes the wire header into dst[:HeaderLen].
func (c Ctx) Encode(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(c.Deadline))
	binary.LittleEndian.PutUint64(dst[8:16], c.IdemKey)
}

// DecodeCtx splits an on-wire request into its reliability header and the
// application payload.
func DecodeCtx(wire []byte) (Ctx, []byte) {
	if len(wire) < HeaderLen {
		return Ctx{}, wire
	}
	c := Ctx{
		Deadline: sim.Time(binary.LittleEndian.Uint64(wire[0:8])),
		IdemKey:  binary.LittleEndian.Uint64(wire[8:16]),
	}
	return c, wire[HeaderLen:]
}

// Expired reports whether the deadline has passed at virtual time now.
func (c Ctx) Expired(now sim.Time) bool {
	return c.Deadline != 0 && now >= c.Deadline
}
