// Package rpc provides remote procedure calls over virtual networks — the
// "SunRPC" box of the paper's Fig. 1: conventional request/response
// services carried by the fast communication layer.
//
// A server registers numbered procedures on a well-known endpoint. Calls
// and results of any size are moved as fragmented bulk Active Messages;
// undeliverable calls surface as ErrUnreachable through the §3.2
// return-to-sender path rather than through pessimistic timeouts.
//
// The stack is threaded through internal/reliab: every call carries an
// absolute virtual-time deadline and an optional idempotency key in a
// 16-byte wire header, servers shed already-expired work (and, with an
// admission queue configured, NACK overload instead of queueing without
// bound), and clients carry a per-server circuit breaker that fails fast
// once the peer looks dead. Nothing here re-sends a returned fragment: the
// NI retried it before returning it, so a client fails the call it carried
// and a server, whose client owns recovery, lets it go.
//
// # Payload ownership
//
// Bulk Active Messages move slices, not copies: the receiver's
// RecvMsg.Payload aliases the sender's bytes. The NI deposits a message at
// most once (its SeenMsg check) and every send ends in exactly one deposit
// or one return, so payload bytes are read once, by the handler of that
// deposit; a later retransmission of the same message is answered from the
// NI's receive state and never read. On that rest the rules of this
// package, which let a steady-state call allocate nothing but its result:
//
//   - GoCtx and CallCtx copy args into the call's wire buffer before they
//     return; the caller may reuse args at once.
//   - A procedure's args are valid only until it returns. A procedure that
//     keeps them copies them; it may return them, or part of them, as its
//     result.
//   - A result belongs to the caller and is never recycled.
//   - A client's call record and wire buffer recycle when its result is
//     harvested: a server answers only a whole call, so by then every call
//     fragment has been copied out. An abandoned or failed call leaves them
//     to the garbage collector — losing one is safe, releasing early is not.
//   - A server's call record and assembly buffer recycle once the result is
//     sent, or, for a result inside the buffer, once the client has
//     acknowledged every result fragment. A result the idempotency cache
//     keeps pins its buffer.
package rpc

import (
	"errors"
	"fmt"
	"unsafe"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// Handler indices.
const (
	hCall   = 1 // call fragment, server side
	hCallOK = 2 // per-fragment flow-control reply
	hResult = 3 // result fragment, client side
)

// serverSlots is a server endpoint's translation-table capacity: the
// clients it can answer, one slot each, mapped as they first call.
const serverSlots = 512

// Result status codes on the wire.
const (
	stOK       = 0
	stNoProc   = 1
	stErr      = 2
	stDeadline = 3 // shed: the call's deadline passed before execution
	stOverload = 4 // admission NACK: queue full of unexpired work
)

// Errors. The reliability-layer conditions are aliases of the typed
// reliab errors so errors.Is works across layers.
var (
	ErrUnreachable      = errors.New("rpc: server unreachable")
	ErrNoProc           = errors.New("rpc: no such procedure")
	ErrTimeout          = errors.New("rpc: call timed out")
	ErrCircuitOpen      = reliab.ErrCircuitOpen
	ErrOverload         = reliab.ErrOverload
	ErrDeadlineExceeded = reliab.ErrDeadlineExceeded
)

// Options tunes the reliability layer for one client or server. The zero
// value gives the defaults: a circuit breaker on clients, inline execution
// (no admission queue) and no idempotency cache on servers.
type Options struct {
	// Metrics receives the reliab counters; one Metrics is typically shared
	// cluster-wide. nil records nothing.
	Metrics *reliab.Metrics
	// Queue > 0 bounds the server's admission queue: completed calls wait
	// there for Step/Serve to execute them, a full queue sheds expired
	// entries first and NACKs overload otherwise. 0 executes inline.
	Queue int
	// NoShed disables server-side deadline shedding (ablation knob).
	NoShed bool
	// NoBreaker disables the circuit breaker a client keeps per server
	// (ablation knob). It applies to clients only: a server has no breaker.
	NoBreaker bool
	// IdemCap sizes the server's idempotency result cache (0 = off).
	IdemCap int
	// StaleAfter bounds how long the server keeps assembly state, or a
	// result awaiting its acknowledgment, for a call whose client went
	// silent (default 1 s).
	StaleAfter sim.Duration
}

// Proc is a registered procedure: input bytes to output bytes. args are
// valid only until it returns (see Payload ownership in the package doc).
type Proc func(p *sim.Proc, args []byte) ([]byte, error)

// CtxProc is a procedure that also receives the call's reliability
// context, so nested calls can inherit the remaining deadline budget.
type CtxProc func(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error)

// Server serves registered procedures on one endpoint.
type Server struct {
	node   *hostos.Node
	bundle *core.Bundle
	ep     *core.Endpoint
	procs  map[int]CtxProc
	opts   Options
	m      *reliab.Metrics
	tr     *obs.Tracer

	calls map[callKey]*callBuf

	queue    *reliab.AdmitQueue
	idem     *reliab.IdemCache[idemResult]
	inflight map[reliab.IdemKey]bool

	// free holds retired call records, LIFO. acking lists the records whose
	// result lives in their own assembly buffer, until the client has
	// acknowledged every result fragment; both are linked through next.
	free, acking *callBuf
	// slots counts the translation slots mapped to clients, which are
	// [0, slots): the next new client gets slot slots.
	slots int

	lastSweep sim.Time

	// Served counts completed calls.
	Served int64
}

type callKey struct {
	client core.EndpointName
	id     uint64
}

type callBuf struct {
	id       uint64
	proc     int
	data     []byte
	got      int
	total    int
	clientEP core.EndpointName
	idx      int // translation slot for this client
	at       sim.Time
	ctx      reliab.Ctx
	body     []byte
	// trace is the trace id of the sampled request this call belongs to
	// (0 = untraced), captured from the fragment that completed assembly.
	// fl is the server-side op span: opened at admission, it measures
	// admit-wait then service time, or records why the call died instead.
	trace uint64
	fl    *obs.Flight
	// acks counts the result fragments still unacknowledged while the record
	// sits in acking; at then is when the result went out.
	acks int
	next *callBuf
}

// idemResult is a cached idempotent call outcome.
type idemResult struct {
	status uint64
	result []byte
}

// NewServer creates an RPC server on node with the given endpoint key and
// default reliability options.
func NewServer(node *hostos.Node, key core.Key) (*Server, error) {
	return NewServerOpts(node, key, Options{})
}

// NewServerOpts creates an RPC server with explicit reliability options.
func NewServerOpts(node *hostos.Node, key core.Key, opts Options) (*Server, error) {
	b := core.Attach(node)
	ep, err := b.NewEndpoint(key, serverSlots)
	if err != nil {
		return nil, err
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = sim.Second
	}
	s := &Server{node: node, bundle: b, ep: ep, procs: make(map[int]CtxProc),
		opts: opts, m: opts.Metrics, tr: b.Tracer(),
		calls: make(map[callKey]*callBuf)}
	if opts.Queue > 0 {
		s.queue = reliab.NewAdmitQueue(opts.Queue, opts.Metrics)
	}
	if opts.IdemCap > 0 {
		s.idem = reliab.NewIdemCache[idemResult](opts.IdemCap, opts.Metrics)
		s.inflight = make(map[reliab.IdemKey]bool)
	}
	ep.SetHandler(hCall, s.onCall)
	// The last result-fragment acknowledgment retires a call record whose
	// result lives in its buffer. The acknowledging endpoint is the one the
	// call named as its client (an endpoint that migrated since answers from
	// elsewhere; Sweep reclaims its records). A server installs no return
	// handler: a result fragment that comes back is dropped, since the
	// client owns call recovery and the server must not hang on a dead
	// peer; Sweep reclaims a record whose acknowledgment never comes.
	ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		s.acked(callKey{client: tok.Source(), id: args[0]})
	})
	return s, nil
}

// Name returns the server's endpoint name.
func (s *Server) Name() core.EndpointName { return s.ep.Name() }

// Key returns the server's endpoint key (clients need it to map the
// server into their translation tables).
func (s *Server) Key() core.Key { return s.ep.Key() }

// Register installs procedure number proc.
func (s *Server) Register(proc int, fn Proc) {
	s.procs[proc] = func(p *sim.Proc, _ reliab.Ctx, args []byte) ([]byte, error) {
		return fn(p, args)
	}
}

// RegisterCtx installs a context-aware procedure: fn receives the call's
// deadline/idempotency context and passes it (or a derived one) to any
// nested calls so the remaining budget is inherited end to end.
func (s *Server) RegisterCtx(proc int, fn CtxProc) { s.procs[proc] = fn }

// sweepDivisor paces the stale-state sweep relative to StaleAfter.
const sweepDivisor = 4

// maybeSweep runs Sweep when a sweep period has passed since the last one.
func (s *Server) maybeSweep(now sim.Time) {
	if now.Sub(s.lastSweep) >= s.opts.StaleAfter/sweepDivisor {
		s.lastSweep = now
		s.Sweep(now)
	}
}

// Sweep reclaims server-side state for calls whose client went silent:
// partially assembled callBufs that stopped receiving fragments, counted as
// stale_reclaimed, and results whose acknowledgment never arrived.
func (s *Server) Sweep(now sim.Time) {
	dropped := 0
	for k, cb := range s.calls {
		if now.Sub(cb.at) > s.opts.StaleAfter {
			delete(s.calls, k)
			dropped++
		}
	}
	// A result whose acknowledgment was lost pins its record: let the
	// collector have it (it is not call state, so it is not counted).
	for link := &s.acking; *link != nil; {
		if cb := *link; now.Sub(cb.at) > s.opts.StaleAfter {
			*link, cb.next = cb.next, nil
		} else {
			link = &cb.next
		}
	}
	if dropped > 0 {
		s.m.Add("stale_reclaimed", int64(dropped))
	}
}

// Poll services incoming calls and periodically sweeps stale call state;
// servers embed it in their main loop, or use Serve for a dedicated thread.
// With an admission queue configured, completed calls only queue up here —
// Step executes them.
func (s *Server) Poll(p *sim.Proc) int {
	n := s.ep.Poll(p)
	s.maybeSweep(p.Now())
	return n
}

// Step executes at most one admitted call from the queue, shedding any
// whose deadline expired while queued. It reports whether it did work.
func (s *Server) Step(p *sim.Proc) bool {
	if s.queue == nil {
		return false
	}
	for {
		it, ok := s.queue.Pop()
		if !ok {
			return false
		}
		cb := it.V.(*callBuf)
		if !s.opts.NoShed && cb.ctx.Expired(p.Now()) {
			s.m.Inc("shed")
			s.m.Inc("deadline_exceeded")
			cb.fl.Drop(obs.StageDeadlineShed, "queued-expired", p.Now())
			s.clearInflight(cb)
			prev := s.ep.SetTrace(cb.trace)
			s.reply(p, cb, stDeadline, nil, false)
			s.ep.SetTrace(prev)
			continue
		}
		s.execute(p, cb)
		return true
	}
}

// Serve runs an event-driven server thread until stop returns true,
// draining the admission queue between waits.
func (s *Server) Serve(p *sim.Proc, stop func() bool) {
	s.ep.SetEventMask(true)
	for !stop() {
		if s.Step(p) {
			s.ep.Poll(p)
			continue
		}
		if !s.bundle.WaitTimeout(p, 10*sim.Millisecond) {
			// Idle tick: no event arrived, but the stale sweep must still
			// run — a crashed client's unacknowledged result otherwise pins
			// its record forever on a server nobody talks to.
			s.maybeSweep(p.Now())
			continue
		}
		s.Poll(p)
	}
}

// Outstanding reports the server's bookkeeping sizes — assembly buffers
// and queued calls — for the leak invariants of the chaos soak and the
// regression tests. A server re-issues and defers nothing, so reissues and
// deferred are always 0.
func (s *Server) Outstanding() (calls, reissues, queued, deferred int) {
	if s.queue != nil {
		queued = s.queue.Len()
	}
	return len(s.calls), 0, queued, 0
}

// nextSlot finds or creates a translation slot for a client endpoint: the
// client's slot if it has called before, else the lowest unmapped one.
func (s *Server) nextSlot(name core.EndpointName, key core.Key) (int, error) {
	if idx, ok := s.ep.SlotOf(name); ok {
		return idx, nil
	}
	if s.slots == serverSlots {
		return 0, fmt.Errorf("rpc: translation table full")
	}
	idx := s.slots
	s.slots++
	return idx, s.ep.Map(idx, name, key)
}

// onCall assembles call fragments; a completed call runs through the
// reliability gauntlet — idempotency cache, deadline shed, admission — and
// executes inline or from the queue. Results go back as fragmented
// requests to the client endpoint named in the call.
func (s *Server) onCall(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	callID := args[0]
	offset := int(args[1] >> 20)
	total := int(args[1] & (1<<20 - 1))
	proc := int(args[2] >> 40)
	clientKey := core.Key(args[2] & (1<<40 - 1))
	client := core.NameFromRaw(int64(args[3]))

	k := callKey{client: client, id: callID}
	cb, ok := s.calls[k]
	if !ok {
		idx, err := s.nextSlot(client, clientKey)
		if err != nil {
			tok.Reply(p, hCallOK, [4]uint64{callID, 1})
			return
		}
		cb = s.record(total)
		cb.id, cb.proc, cb.total = callID, proc, total
		cb.clientEP, cb.idx, cb.at = client, idx, p.Now()
		s.calls[k] = cb
	}
	copy(cb.data[offset:], payload)
	cb.got += len(payload)
	tok.Reply(p, hCallOK, [4]uint64{callID})
	if cb.got < cb.total {
		return
	}
	delete(s.calls, k)

	now := p.Now()
	cb.ctx, cb.body = reliab.DecodeCtx(cb.data)
	// The fragment that completed assembly is being dispatched right now, so
	// the endpoint's ambient trace is this call's trace. Restoring it into
	// the Ctx (it is not wire state) lets the procedure's nested calls join
	// the same trace tree.
	cb.trace = s.ep.Trace()
	cb.ctx.Trace = cb.trace
	if ik, ok := s.idemKeyOf(cb); ok {
		if v, hit := s.idem.Get(ik); hit {
			s.reply(p, cb, v.status, v.result, false)
			return
		}
		if s.inflight[ik] {
			// The original is queued or executing; answering overload makes
			// the client back off and retry into the cache instead of
			// running the handler twice.
			s.m.Inc("idem_dup")
			s.reply(p, cb, stOverload, nil, false)
			return
		}
	}
	if !s.opts.NoShed && cb.ctx.Expired(now) {
		s.m.Inc("shed")
		s.m.Inc("deadline_exceeded")
		s.opSpan(cb, now).Drop(obs.StageDeadlineShed, "shed-on-arrival", now)
		s.reply(p, cb, stDeadline, nil, false)
		return
	}
	if ik, ok := s.idemKeyOf(cb); ok {
		s.inflight[ik] = true
	}
	if s.queue != nil {
		evicted, admitted := s.queue.Admit(now, cb.ctx, cb)
		for _, ev := range evicted {
			ecb := ev.V.(*callBuf)
			s.m.Inc("deadline_exceeded")
			ecb.fl.Drop(obs.StageDeadlineShed, "evicted", now)
			s.clearInflight(ecb)
			// Result fragments for the evicted call belong to its trace, not
			// the arriving call's.
			prev := s.ep.SetTrace(ecb.trace)
			s.reply(p, ecb, stDeadline, nil, false)
			s.ep.SetTrace(prev)
		}
		if !admitted {
			s.m.Inc("overload_nacks")
			s.opSpan(cb, now).Drop(obs.StageAdmitWait, "overload-nack", now)
			s.clearInflight(cb)
			s.reply(p, cb, stOverload, nil, false)
			return
		}
		cb.fl = s.opSpan(cb, now)
		return
	}
	s.execute(p, cb)
}

// opSpan opens the server-side op span for a traced call (nil when the
// call is untraced or tracing is off — Flight methods are nil-safe).
func (s *Server) opSpan(cb *callBuf, at sim.Time) *obs.Flight {
	nid := int(s.node.ID)
	return s.tr.Child(cb.trace, nid, nid, obs.KindOp, at)
}

func (s *Server) idemKeyOf(cb *callBuf) (reliab.IdemKey, bool) {
	if s.idem == nil || cb.ctx.IdemKey == 0 {
		return reliab.IdemKey{}, false
	}
	return reliab.IdemKey{Client: uint64(cb.clientEP.Raw()), Key: cb.ctx.IdemKey}, true
}

func (s *Server) clearInflight(cb *callBuf) {
	if ik, ok := s.idemKeyOf(cb); ok {
		delete(s.inflight, ik)
	}
}

// execute dispatches the procedure and sends the result. For a traced
// call the op span splits here: time since admission is admit-wait, time
// inside the procedure is service.
func (s *Server) execute(p *sim.Proc, cb *callBuf) {
	if cb.fl != nil {
		cb.fl.Mark(obs.StageAdmitWait, p.Now())
	} else {
		cb.fl = s.opSpan(cb, p.Now()) // inline execution: no queue wait
	}
	prev := s.ep.SetTrace(cb.trace)
	fn, ok := s.procs[cb.proc]
	status := uint64(stOK)
	var result []byte
	if !ok {
		status = stNoProc
	} else {
		out, err := fn(p, cb.ctx, cb.body)
		if err != nil {
			status = stErr
			result = []byte(err.Error())
		} else {
			result = out
		}
	}
	cb.fl.Mark(obs.StageService, p.Now())
	cb.fl.Finish(p.Now())
	s.Served++
	ik, cached := s.idemKeyOf(cb)
	if cached {
		s.idem.Put(ik, idemResult{status: status, result: result})
		delete(s.inflight, ik)
	}
	s.reply(p, cb, status, result, cached)
	s.ep.SetTrace(prev)
}

// record takes a call record from the free list, or makes one, with an
// assembly buffer of n bytes. Every byte of the buffer is written by the
// call's fragments before the call runs.
func (s *Server) record(n int) *callBuf {
	cb := s.free
	if cb == nil {
		cb = &callBuf{}
	} else {
		s.free = cb.next
	}
	data := cb.data
	if cap(data) < n {
		data = make([]byte, n)
	}
	*cb = callBuf{data: data[:n]}
	return cb
}

// release returns a record nothing reads any more to the free list.
func (s *Server) release(cb *callBuf) {
	*cb = callBuf{data: cb.data[:0], next: s.free}
	s.free = cb
}

// reply sends cb's result and retires cb. A result outside cb's buffers
// (none, the procedure's own, a cached one) frees it at once. A result
// inside them — an echo of its args — is read by the result fragments until
// the client has acknowledged each one, so the record waits in acking for
// that, entered before the first fragment goes
// out; and one the idempotency cache keeps pins it for good.
func (s *Server) reply(p *sim.Proc, cb *callBuf, status uint64, result []byte, cached bool) {
	pinned := aliases(cb.data, result)
	if pinned && !cached {
		cb.acks, cb.at = (len(result)+nic.MTU-1)/nic.MTU, p.Now()
		cb.next, s.acking = s.acking, cb
	}
	s.sendResult(p, cb.idx, cb.id, status, result)
	if !pinned {
		s.release(cb)
	}
}

// acked counts one acknowledged result fragment of call k against the
// record in acking that holds its result, and frees the record at the
// last. The list holds the results still travelling, a few at most.
func (s *Server) acked(k callKey) {
	for link := &s.acking; *link != nil; link = &(*link).next {
		if cb := *link; cb.id == k.id && cb.clientEP == k.client {
			if cb.acks--; cb.acks == 0 {
				*link = cb.next
				s.release(cb)
			}
			return
		}
	}
}

// aliases reports whether b, non-empty, starts inside buf's backing array.
// It compares addresses only: nothing is read through them.
func aliases(buf, b []byte) bool {
	if len(b) == 0 || cap(buf) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= lo && at < lo+uintptr(cap(buf))
}

// sendResult streams the result back as fragments.
func (s *Server) sendResult(p *sim.Proc, idx int, callID, status uint64, result []byte) {
	total := len(result)
	if total == 0 {
		s.ep.Request(p, idx, hResult, [4]uint64{callID, uint64(total), 0, status})
		return
	}
	for off := 0; off < total; off += nic.MTU {
		end := off + nic.MTU
		if end > total {
			end = total
		}
		s.ep.RequestBulk(p, idx, hResult, result[off:end],
			[4]uint64{callID, uint64(total), uint64(off), status})
	}
}
