// Package obs is the cluster-wide observability layer: the metric types
// every layer keeps (named counter sets, duration histograms such as the
// bimodal client latencies of §6.4.1, per-interval timelines), a
// deterministic message flight recorder, a unified metrics registry, and
// exporters for Chrome trace-event JSON (Perfetto-compatible) and per-stage
// latency decompositions.
//
// The flight recorder carries a trace context on sampled messages through
// the whole stack — library post, NI weighted-round-robin dispatch, per-hop
// network transit, the remote NI's deposit, the host poll, and handler
// dispatch — recording virtual-time stage boundaries. Stage intervals are
// contiguous by construction (each mark closes the interval opened by the
// previous one), so the per-stage sum equals the end-to-end latency exactly;
// that is what lets the breakdown experiment reproduce the paper's §4
// overhead split without residuals.
//
// Everything is deterministic per engine seed: the sampler draws from a
// dedicated PRNG seeded once from the engine PRNG (so enabling tracing does
// not shift the simulation's main random stream after setup), finalized
// flights land in bounded per-node rings in event order, and exports iterate
// in fixed orders. With no tracer installed every hook degenerates to a
// nil-pointer check, so the disabled hot path costs nothing and allocates
// nothing.
package obs

import (
	"fmt"
	"math/rand"
	"sort"

	"virtnet/internal/sim"
)

// Stage labels one contiguous interval of a traced message's life. The
// taxonomy follows the paper's §4 accounting of where microseconds go.
type Stage uint8

const (
	// StageHostPost: library post entry → descriptor enqueued (Os charge,
	// endpoint write fault, send-queue-space wait).
	StageHostPost Stage = iota
	// StageWRRWait: descriptor enqueued → popped by the NI's weighted
	// round-robin service (the endpoint-scheduling delay §5 manages).
	StageWRRWait
	// StageNISend: WRR pop → wire injection (SBUS staging DMA plus the
	// firmware send critical path).
	StageNISend
	// StageWire: injection → arrival at the destination NI, including any
	// retransmission and back-pressure stalls in between.
	StageWire
	// StageRemoteNI: arrival → deposit into the endpoint queue (receive
	// critical path, key check, SBUS deposit DMA).
	StageRemoteNI
	// StageDeposit: deposit → visible to a host poll (SBUS read latency).
	StageDeposit
	// StageHostPoll: visible → popped by the polling thread.
	StageHostPoll
	// StageHandler: pop → handler invocation (Or charge and dispatch
	// bookkeeping). The flight ends when the handler starts running, so the
	// recorded pipeline is exactly "doorbell to handler".
	StageHandler

	// The stages below label request-level flights (KindReq roots and
	// KindOp children) rather than single messages: the reliability and
	// serving layers mark them so a whole request decomposes into waiting,
	// fan-in, backoff, and server-side queueing the same way a message
	// decomposes into NI and wire time.

	// StageRPCWait: request issued → first branch (replica / backend call)
	// completed. This is the in-flight RPC time the client spends waiting.
	StageRPCWait
	// StageBackoff: time the request's fragments spent in NI retransmission
	// recovery, which foldTree charges here; no span is marked with it.
	StageBackoff
	// StageFanIn: first branch completed → last branch completed; fan-in
	// queueing at the client is what stretches this under incast.
	StageFanIn
	// StageAdmitWait: call admitted to the server queue → execution start.
	StageAdmitWait
	// StageService: execution start → result handed to the send path.
	StageService
	// StageBreakerOpen: a call failed fast on an open circuit breaker.
	StageBreakerOpen
	// StageDeadlineShed: a call shed because its deadline had passed
	// (client-side before issue, or server-side before/while queued).
	StageDeadlineShed

	// NumStages bounds the taxonomy.
	NumStages
)

var stageNames = [NumStages]string{
	"host-post", "wrr-wait", "ni-send", "wire",
	"remote-ni", "deposit", "host-poll", "handler",
	"rpc-wait", "backoff", "fan-in", "admit-wait",
	"service", "brk-fastfail", "deadln-shed",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// Kind classifies a traced message for aggregation.
type Kind uint8

const (
	KindShort Kind = iota // short request
	KindBulk              // bulk request (payload staged by DMA)
	KindReply             // reply (short or bulk)
	KindReq               // request-level root span (one serving request)
	KindOp                // request-level child span (retry, backoff, queueing)
	NumKinds
)

var kindNames = [NumKinds]string{"short", "bulk", "reply", "request", "op"}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// StageRec is one recorded stage interval.
type StageRec struct {
	Stage      Stage
	Start, End sim.Time
}

// HopRec is one link traversal recorded by the network layer: the interval
// the packet occupied the named link in the pipelined cut-through schedule.
type HopRec struct {
	Link       string
	Start, End sim.Time
}

// Note is a point annotation on a flight (a loss, a NACK, a retransmission).
type Note struct {
	What string
	At   sim.Time
}

const (
	maxHops  = 64 // bounds Hops even across many retransmissions
	maxNotes = 32 // bounds Notes on pathological retry storms
)

// Flight is the recorded life of one sampled message. All methods are
// nil-receiver safe so instrumentation sites can call them unconditionally
// on possibly-nil flight pointers.
type Flight struct {
	TraceID uint64 // shared by a request and the replies it triggers
	Span    uint64 // unique per flight (a trace has one span per message)
	Kind    Kind
	Src     int // origin node
	Dst     int // destination node
	Begin   sim.Time
	End     sim.Time
	Stages  []StageRec
	Hops    []HopRec
	Notes   []Note
	// DropStage and DropReason describe where and why an undelivered flight
	// died; DropReason is empty on flights that completed.
	DropStage  Stage
	DropReason string
	// HandedOff marks a flight finalized at a shard boundary: the message
	// crossed the fabric into another shard's engine, where a continuation
	// flight (Link = this flight's Span) picks up the remaining stages.
	HandedOff bool
	// Link, on a continuation flight, is the Span of the source-shard
	// segment it continues; 0 on ordinary flights. Exporters use the pair
	// to draw a flow arrow across the boundary.
	Link uint64

	last sim.Time
	done bool
	tr   *Tracer
}

// Mark closes the currently open interval at time at, labeling it st.
// Marks must be issued in protocol order; a mark timestamped before the
// previous one is clamped (zero-length interval) rather than recorded
// out of order.
func (f *Flight) Mark(st Stage, at sim.Time) {
	if f == nil || f.done {
		return
	}
	if at < f.last {
		at = f.last
	}
	f.Stages = append(f.Stages, StageRec{Stage: st, Start: f.last, End: at})
	f.last = at
}

// AddHop records one link traversal (called by the network layer).
func (f *Flight) AddHop(link string, start, end sim.Time) {
	if f == nil || f.done || len(f.Hops) >= maxHops {
		return
	}
	f.Hops = append(f.Hops, HopRec{Link: link, Start: start, End: end})
}

// Note records a point annotation.
func (f *Flight) Note(what string, at sim.Time) {
	if f == nil || f.done || len(f.Notes) >= maxNotes {
		return
	}
	f.Notes = append(f.Notes, Note{What: what, At: at})
}

// Finish completes the flight and files it into its tracer's ring. An end
// timestamped before the last mark is clamped forward to it (the same
// policy Mark applies to backward timestamps): callers that observed a
// completion mid-sweep may finalize with the sweep's start time, and the
// stage vector must never overshoot the recorded end-to-end window.
func (f *Flight) Finish(now sim.Time) {
	if f == nil || f.done {
		return
	}
	if now < f.last {
		now = f.last
	}
	f.End = now
	f.done = true
	f.tr.finalize(f)
}

// Handoff finalizes the flight at a shard boundary at time at: the open
// interval is closed as wire time (the message is mid-flight on the fabric)
// and the flight files into its source shard's ring marked HandedOff. The
// destination shard opens a continuation via Tracer.Continue at the same
// instant, so the two segments tile the message's life without overlap and
// the stage-sum invariant holds for each segment.
func (f *Flight) Handoff(at sim.Time) {
	if f == nil || f.done {
		return
	}
	f.Mark(StageWire, at)
	f.HandedOff = true
	f.End = f.last
	f.done = true
	f.tr.finalize(f)
}

// Drop completes the flight as undelivered: the open interval is closed at
// the drop point and labeled with the stage the message died in. An empty
// reason is normalized to "dropped" so DropReason is always non-empty on
// dropped flights — the invariant Decompose uses to exclude them.
func (f *Flight) Drop(at Stage, reason string, now sim.Time) {
	if f == nil || f.done {
		return
	}
	if reason == "" {
		reason = "dropped"
	}
	f.DropStage, f.DropReason = at, reason
	f.Mark(at, now)
	f.End = f.last // like Finish: never before the final mark
	f.done = true
	f.tr.finalize(f)
}

// Done reports whether the flight has been finalized.
func (f *Flight) Done() bool { return f != nil && f.done }

// Total is the end-to-end recorded duration.
func (f *Flight) Total() sim.Duration { return f.End.Sub(f.Begin) }

// StageTotals sums the recorded intervals by stage. Because intervals are
// contiguous, the totals sum to Total exactly.
func (f *Flight) StageTotals() [NumStages]sim.Duration {
	var out [NumStages]sim.Duration
	for _, r := range f.Stages {
		if r.Stage < NumStages {
			out[r.Stage] += r.End.Sub(r.Start)
		}
	}
	return out
}

// lastStage returns the most recently closed stage (StageHostPost if none).
func (f *Flight) lastStage() Stage {
	if len(f.Stages) == 0 {
		return StageHostPost
	}
	return f.Stages[len(f.Stages)-1].Stage
}

// ring is a bounded buffer of finalized flights for one origin node. Slots
// are written only at finalization, so open flights never occupy one.
type ring struct {
	buf []*Flight
	n   int // total finalized; buf index is n % cap
}

func (r *ring) push(f *Flight) {
	r.buf[r.n%len(r.buf)] = f
	r.n++
}

// chronological returns retained flights oldest-first.
func (r *ring) chronological() []*Flight {
	if r.n <= len(r.buf) {
		return r.buf[:r.n]
	}
	at := r.n % len(r.buf)
	out := make([]*Flight, 0, len(r.buf))
	out = append(out, r.buf[at:]...)
	return append(out, r.buf[:at]...)
}

// Tracer is the message flight recorder: it makes the sampling decision,
// tracks open flights, and retains finalized ones in bounded per-node rings.
//
// In a sharded cluster every shard owns its own Tracer (the same pattern as
// the per-shard metric registries): all mutation happens on the owning
// shard's engine goroutine, so no lock is needed, and shard s namespaces its
// trace and span ids with s<<48 so merged output has globally unique,
// deterministic ids. Shard 0's namespace is the zero base, so a single-shard
// run produces the same ids as before sharding existed.
type Tracer struct {
	sampleEvery int
	idBase      uint64
	ringCap     int
	rng         *rand.Rand
	nextTrace   uint64
	nextSpan    uint64
	open        map[uint64]*Flight // keyed by span
	rings       []ring
	finalized   int64
	droppedN    int64
}

// DefaultRingCap is the per-node finalized-flight retention bound.
const DefaultRingCap = 4096

// shardIDShift positions the shard index in the high bits of trace and span
// ids; the low 48 bits are the per-shard sequence.
const shardIDShift = 48

// NewTracer builds a flight recorder for a cluster of nodes hosts.
// sampleEvery is the 1-in-N sampling rate (1 records every message). The
// sampler owns a dedicated PRNG seeded once from the engine PRNG: runs stay
// bit-reproducible per seed, and per-message sampling decisions do not
// perturb the simulation's main random stream.
func NewTracer(e *sim.Engine, nodes, sampleEvery, ringCap int) *Tracer {
	return NewTracerShard(e, nodes, sampleEvery, ringCap, 0)
}

// NewTracerShard is NewTracer for one shard of a sharded cluster: ids are
// namespaced by shard so per-shard arenas merge without collisions. Rings
// still cover every node in the cluster (a flight files under its source
// node), but ring buffers allocate lazily on first use, so a shard only
// pays for the nodes it actually owns.
func NewTracerShard(e *sim.Engine, nodes, sampleEvery, ringCap, shard int) *Tracer {
	if nodes < 1 {
		nodes = 1
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if ringCap < 1 {
		ringCap = DefaultRingCap
	}
	if shard < 0 {
		shard = 0
	}
	return &Tracer{
		sampleEvery: sampleEvery,
		idBase:      uint64(shard) << shardIDShift,
		ringCap:     ringCap,
		rng:         rand.New(rand.NewSource(e.Rand().Int63())),
		open:        make(map[uint64]*Flight),
		rings:       make([]ring, nodes),
	}
}

// Sample makes the 1-in-N sampling decision for a new message from src to
// dst and, when sampled, opens a flight beginning at now. Nil-receiver safe.
func (t *Tracer) Sample(src, dst int, k Kind, now sim.Time) *Flight {
	if t == nil {
		return nil
	}
	if t.sampleEvery > 1 && t.rng.Int63n(int64(t.sampleEvery)) != 0 {
		return nil
	}
	t.nextTrace++
	return t.newFlight(t.idBase|t.nextTrace, src, dst, k, now)
}

// Child opens a flight that continues an existing trace (a reply span
// sharing the request's trace id). Children of sampled flights are always
// recorded, so traces are never truncated mid-exchange.
func (t *Tracer) Child(traceID uint64, src, dst int, k Kind, now sim.Time) *Flight {
	if t == nil || traceID == 0 {
		return nil
	}
	return t.newFlight(traceID, src, dst, k, now)
}

// Continue opens the destination-shard continuation of a flight that was
// handed off at a shard boundary: it shares the source segment's trace id
// and kind, records which span it continues (Link), and begins exactly at
// the handoff instant, so source segment plus continuation tile the
// message's life. Nil-receiver safe; always records (never sampled away),
// mirroring Child.
func (t *Tracer) Continue(traceID, fromSpan uint64, src, dst int, k Kind, at sim.Time) *Flight {
	if t == nil || traceID == 0 {
		return nil
	}
	f := t.newFlight(traceID, src, dst, k, at)
	f.Link = fromSpan
	return f
}

func (t *Tracer) newFlight(traceID uint64, src, dst int, k Kind, now sim.Time) *Flight {
	t.nextSpan++
	f := &Flight{
		TraceID: traceID,
		Span:    t.idBase | t.nextSpan,
		Kind:    k,
		Src:     src,
		Dst:     dst,
		Begin:   now,
		last:    now,
		tr:      t,
	}
	t.open[f.Span] = f
	return f
}

func (t *Tracer) finalize(f *Flight) {
	if t == nil {
		return
	}
	delete(t.open, f.Span)
	t.finalized++
	if f.DropReason != "" {
		t.droppedN++
	}
	i := f.Src
	if i < 0 || i >= len(t.rings) {
		i = 0
	}
	r := &t.rings[i]
	if r.buf == nil {
		r.buf = make([]*Flight, t.ringCap)
	}
	r.push(f)
}

// OpenCount reports flights started but not yet finalized.
func (t *Tracer) OpenCount() int { return len(t.open) }

// Finalized reports the total number of finalized flights (including those
// already evicted from the rings).
func (t *Tracer) Finalized() int64 { return t.finalized }

// DroppedFlights reports finalized flights that ended in a drop.
func (t *Tracer) DroppedFlights() int64 { return t.droppedN }

// Nodes reports the number of per-node rings.
func (t *Tracer) Nodes() int { return len(t.rings) }

// SweepOpen finalizes every still-open flight as dropped (reason), in span
// order. Crashed nodes strand flights whose messages will never resolve;
// sweeping before export guarantees every started flight is accounted for
// and no ring slot is leaked.
func (t *Tracer) SweepOpen(reason string, now sim.Time) {
	if t == nil || len(t.open) == 0 {
		return
	}
	spans := make([]uint64, 0, len(t.open))
	for s := range t.open {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })
	for _, s := range spans {
		f := t.open[s]
		f.Drop(f.lastStage(), reason, now)
	}
}

// Flights returns retained finalized flights in deterministic order: rings
// in node order, each ring oldest-first (which is finalization order, i.e.
// virtual-time order per node).
func (t *Tracer) Flights() []*Flight {
	if t == nil {
		return nil
	}
	var out []*Flight
	for i := range t.rings {
		out = append(out, t.rings[i].chronological()...)
	}
	return out
}

// MergeFlights merges the retained flights of per-shard tracer arenas into
// one deterministic timeline ordered by (Begin, Span). Span ids carry the
// owning shard in their high bits, so the sort key is exactly the
// (time, shard, sequence) order the sharded engine's barrier protocol
// guarantees is stable per (seed, shard count) — merged output is
// byte-reproducible regardless of which shard finalized a flight first in
// wall-clock terms. Nil tracers in ts are skipped.
func MergeFlights(ts []*Tracer) []*Flight {
	var out []*Flight
	for _, t := range ts {
		out = append(out, t.Flights()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Begin != out[j].Begin {
			return out[i].Begin < out[j].Begin
		}
		return out[i].Span < out[j].Span
	})
	return out
}
