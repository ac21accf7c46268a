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
// bound), bounced fragments are re-issued under a per-peer token-bucket
// retry budget with deterministic exponential backoff, and clients carry a
// per-server circuit breaker that fails fast once the peer looks dead.
package rpc

import (
	"errors"
	"fmt"
	"math/rand"

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
// value gives the defaults: transport retry budget and backoff on both
// sides, a circuit breaker on clients, inline execution (no admission
// queue) and no idempotency cache on servers.
type Options struct {
	// Metrics receives the reliab counters and backoff histogram; one
	// Metrics is typically shared cluster-wide. nil records nothing.
	Metrics *reliab.Metrics
	// Queue > 0 bounds the server's admission queue: completed calls wait
	// there for Step/Serve to execute them, a full queue sheds expired
	// entries first and NACKs overload otherwise. 0 executes inline.
	Queue int
	// NoShed disables server-side deadline shedding (ablation knob).
	NoShed bool
	// NoBreaker disables the client-side circuit breaker (ablation knob).
	NoBreaker bool
	// IdemCap sizes the server's idempotency result cache (0 = off).
	IdemCap int
	// Budget is the per-peer transport retry budget.
	Budget reliab.BudgetConfig
	// MaxAttempts bounds re-issue rounds per call (default 3): the budget
	// caps the peer-wide retry rate, this caps how long any one call keeps
	// trying before it is declared undeliverable.
	MaxAttempts int
	// Backoff shapes the deterministic re-issue backoff.
	Backoff reliab.BackoffConfig
	// Breaker tunes the client's per-server circuit breaker.
	Breaker reliab.BreakerConfig
	// Health lets the breaker's half-open probes ride an external liveness
	// signal (the glunix health monitor) instead of waiting out the
	// cooldown.
	Health func() bool
	// StaleAfter bounds how long the server keeps assembly/reissue state
	// for a call whose client went silent (default 1 s).
	StaleAfter sim.Duration
}

func (o Options) maxAttempts() int {
	if o.MaxAttempts <= 0 {
		return 3
	}
	return o.MaxAttempts
}

// Proc is a registered procedure: input bytes to output bytes.
type Proc func(p *sim.Proc, args []byte) ([]byte, error)

// CtxProc is a procedure that also receives the call's reliability
// context, so nested calls can inherit the remaining deadline budget.
type CtxProc func(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error)

// deferredSend is a bounced fragment awaiting its backoff delay; the pump
// in the poll/wait paths flushes due entries (return handlers run inside
// Poll and must not sleep).
type deferredSend struct {
	due     sim.Time
	dstIdx  int
	h       int
	args    [4]uint64
	payload []byte
	// fl is the open backoff span of the traced call this fragment belongs
	// to (nil for untraced calls): marked StageBackoff and finished when the
	// fragment flushes, dropped if the call is abandoned first.
	fl *obs.Flight
}

// reissueState tracks re-issue rounds for one call's fragments.
type reissueState struct {
	n  int
	at sim.Time
}

// Server serves registered procedures on one endpoint.
type Server struct {
	node   *hostos.Node
	bundle *core.Bundle
	ep     *core.Endpoint
	procs  map[int]CtxProc
	opts   Options
	m      *reliab.Metrics
	rng    *rand.Rand
	tr     *obs.Tracer

	calls map[callKey]*callBuf
	// reissues tracks return-to-sender re-sends per outstanding call's
	// results; retries are paced by per-client budgets and backoff.
	reissues map[uint64]*reissueState
	budgets  map[core.EndpointName]*reliab.Budget
	deferred []deferredSend

	queue    *reliab.AdmitQueue
	idem     *reliab.IdemCache
	inflight map[reliab.IdemKey]bool

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
	key      core.Key
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
	ep, err := b.NewEndpoint(key, 512)
	if err != nil {
		return nil, err
	}
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = sim.Second
	}
	s := &Server{node: node, bundle: b, ep: ep, procs: make(map[int]CtxProc),
		opts: opts, m: opts.Metrics, rng: node.E.Rand(), tr: b.Tracer(),
		calls:    make(map[callKey]*callBuf),
		reissues: make(map[uint64]*reissueState),
		budgets:  make(map[core.EndpointName]*reliab.Budget)}
	if opts.Queue > 0 {
		s.queue = reliab.NewAdmitQueue(opts.Queue, opts.Metrics)
	}
	if opts.IdemCap > 0 {
		s.idem = reliab.NewIdemCache(opts.IdemCap, opts.Metrics)
		s.inflight = make(map[reliab.IdemKey]bool)
	}
	ep.SetHandler(hCall, s.onCall)
	// Result-fragment acknowledgments retire the reissue bookkeeping.
	ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		delete(s.reissues, args[0])
	})
	// Result fragments bounced by a transient transport condition are
	// re-issued under the per-client retry budget with backoff; permanently
	// undeliverable ones (client gone, key revoked) and budget-exhausted
	// ones are dropped — the client owns call recovery, the server must not
	// hang on a dead peer.
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		callID := args[0]
		if dstIdx < 0 || reason == nic.NackNoEndpoint || reason == nic.NackBadKey {
			delete(s.reissues, callID)
			return
		}
		now := p.Now()
		st := s.reissues[callID]
		if st == nil {
			st = &reissueState{}
			s.reissues[callID] = st
		}
		if st.n >= s.opts.maxAttempts() || !s.budgetFor(s.ep.TranslationName(dstIdx)).Allow(now) {
			s.m.Inc("retry_denied")
			delete(s.reissues, callID)
			return
		}
		d := s.opts.Backoff.Delay(st.n, s.rng)
		st.n++
		st.at = now
		s.m.Inc("retries")
		s.m.ObserveBackoff(d)
		s.deferred = append(s.deferred, deferredSend{due: now.Add(d), dstIdx: dstIdx, h: h,
			args: args, payload: append([]byte(nil), payload...)})
	})
	return s, nil
}

func (s *Server) budgetFor(peer core.EndpointName) *reliab.Budget {
	bg := s.budgets[peer]
	if bg == nil {
		bg = reliab.NewBudget(s.opts.Budget)
		s.budgets[peer] = bg
	}
	return bg
}

// Name returns the server's endpoint name.
func (s *Server) Name() core.EndpointName { return s.ep.Name() }

// Key returns the server's endpoint key (clients need it to map the
// server into their translation tables).
func (s *Server) Key() core.Key { return s.ep.Key() }

// Endpoint exposes the server's endpoint for QoS control — the tenant-
// interference experiments set WRR weights on it via the vnet manager.
func (s *Server) Endpoint() *core.Endpoint { return s.ep }

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

// pump flushes deferred re-issues whose backoff has elapsed. It runs from
// the poll/wait paths — proc context, where a blocking send is legal.
func (s *Server) pump(p *sim.Proc) {
	if len(s.deferred) > 0 {
		s.deferred = flushDue(p, s.ep, s.deferred, func(uint64) bool { return true })
	}
}

// flushDue re-issues the deferred sends whose backoff has elapsed and
// returns the ones still waiting. live reports whether the call a fragment
// belongs to is still awaited; fragments of abandoned calls are dropped.
func flushDue(p *sim.Proc, ep *core.Endpoint, deferred []deferredSend, live func(callID uint64) bool) []deferredSend {
	now := p.Now()
	kept := deferred[:0]
	for _, d := range deferred {
		if d.due > now {
			kept = append(kept, d)
			continue
		}
		if !live(d.args[0]) {
			d.fl.Drop(obs.StageBackoff, "abandoned", now)
			continue
		}
		d.fl.Mark(obs.StageBackoff, now)
		d.fl.Finish(now)
		if len(d.payload) == 0 {
			_ = ep.Request(p, d.dstIdx, d.h, d.args)
		} else {
			_ = ep.RequestBulk(p, d.dstIdx, d.h, d.payload, d.args)
		}
	}
	return kept
}

// sweepEvery paces the stale-state sweep relative to StaleAfter.
const sweepDivisor = 4

// Sweep reclaims server-side state for calls whose client went silent:
// partially assembled callBufs that stopped receiving fragments and
// reissue entries whose acknowledgment never arrived. Returns how many
// entries were dropped.
func (s *Server) Sweep(now sim.Time) int {
	dropped := 0
	for k, cb := range s.calls {
		if now.Sub(cb.at) > s.opts.StaleAfter {
			delete(s.calls, k)
			dropped++
		}
	}
	for id, st := range s.reissues {
		if now.Sub(st.at) > s.opts.StaleAfter {
			delete(s.reissues, id)
			dropped++
		}
	}
	if dropped > 0 {
		s.m.Add("stale_reclaimed", int64(dropped))
	}
	return dropped
}

// Poll services incoming calls, flushes due re-issues, and periodically
// sweeps stale call state; servers embed it in their main loop, or use
// Serve for a dedicated thread. With an admission queue configured,
// completed calls only queue up here — Step executes them.
func (s *Server) Poll(p *sim.Proc) int {
	n := s.ep.Poll(p)
	s.pump(p)
	now := p.Now()
	if now.Sub(s.lastSweep) >= s.opts.StaleAfter/sweepDivisor {
		s.lastSweep = now
		s.Sweep(now)
	}
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
			s.sendResult(p, cb.idx, cb.id, stDeadline, nil)
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
		s.pump(p)
		if s.Step(p) {
			s.ep.Poll(p)
			continue
		}
		if !s.bundle.WaitTimeout(p, 10*sim.Millisecond) {
			// Idle tick: no event arrived, but the stale sweep must still
			// run — a crashed client's final reply bounce otherwise parks
			// a reissue record forever on a server nobody talks to.
			now := p.Now()
			if now.Sub(s.lastSweep) >= s.opts.StaleAfter/sweepDivisor {
				s.lastSweep = now
				s.Sweep(now)
			}
			continue
		}
		s.Poll(p)
	}
}

// Outstanding reports the server's bookkeeping sizes — assembly buffers,
// unacknowledged result re-issues, queued calls, deferred sends — for the
// leak invariants of the chaos soak and the regression tests.
func (s *Server) Outstanding() (calls, reissues, queued, deferred int) {
	q := 0
	if s.queue != nil {
		q = s.queue.Len()
	}
	return len(s.calls), len(s.reissues), q, len(s.deferred)
}

// nextSlot finds or creates a translation slot for a client endpoint.
func (s *Server) nextSlot(name core.EndpointName, key core.Key) (int, error) {
	for i := 0; i < 512; i++ {
		if s.ep.TranslationName(i) == name {
			return i, nil
		}
		if !s.ep.TranslationValid(i) {
			return i, s.ep.Map(i, name, key)
		}
	}
	return 0, fmt.Errorf("rpc: translation table full")
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
		cb = &callBuf{id: callID, proc: proc, data: make([]byte, total), total: total,
			clientEP: client, key: clientKey, idx: idx, at: p.Now()}
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
			cached := v.(idemResult)
			s.sendResult(p, cb.idx, cb.id, cached.status, cached.result)
			return
		}
		if s.inflight[ik] {
			// The original is queued or executing; answering overload makes
			// the client back off and retry into the cache instead of
			// running the handler twice.
			s.m.Inc("idem_dup")
			s.sendResult(p, cb.idx, cb.id, stOverload, nil)
			return
		}
	}
	if !s.opts.NoShed && cb.ctx.Expired(now) {
		s.m.Inc("shed")
		s.m.Inc("deadline_exceeded")
		s.opSpan(cb, now).Drop(obs.StageDeadlineShed, "shed-on-arrival", now)
		s.sendResult(p, cb.idx, cb.id, stDeadline, nil)
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
			s.sendResult(p, ecb.idx, ecb.id, stDeadline, nil)
			s.ep.SetTrace(prev)
		}
		if !admitted {
			s.m.Inc("overload_nacks")
			s.opSpan(cb, now).Drop(obs.StageAdmitWait, "overload-nack", now)
			s.clearInflight(cb)
			s.sendResult(p, cb.idx, cb.id, stOverload, nil)
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
	if ik, ok := s.idemKeyOf(cb); ok {
		s.idem.Put(ik, idemResult{status: status, result: result})
		delete(s.inflight, ik)
	}
	s.sendResult(p, cb.idx, cb.id, status, result)
	s.ep.SetTrace(prev)
}

// sendResult streams the result back as fragments.
func (s *Server) sendResult(p *sim.Proc, idx int, callID, status uint64, result []byte) {
	mtu := s.node.NIC.Config().MTU
	total := len(result)
	if total == 0 {
		s.ep.Request(p, idx, hResult, [4]uint64{callID, uint64(total), 0, status})
		return
	}
	for off := 0; off < total; off += mtu {
		end := off + mtu
		if end > total {
			end = total
		}
		s.ep.RequestBulk(p, idx, hResult, result[off:end],
			[4]uint64{callID, uint64(total), uint64(off), status})
	}
}

// Client issues calls to one server.
type Client struct {
	node   *hostos.Node
	bundle *core.Bundle
	ep     *core.Endpoint
	opts   Options
	m      *reliab.Metrics
	rng    *rand.Rand
	tr     *obs.Tracer

	nextID   uint64
	results  map[uint64]*resultBuf
	reissues map[uint64]*reissueState
	budget   *reliab.Budget
	brk      *reliab.Breaker
	deferred []deferredSend
	dead     bool // the server endpoint itself is gone (permanent nack)
}

type resultBuf struct {
	data   []byte
	got    int
	total  int
	status uint64
	done   bool
	failed bool   // call fragments kept bouncing: server unreachable
	trace  uint64 // trace id of the sampled request (0 = untraced)
}

// NewClient builds a client on node bound to the server's endpoint, with
// default reliability options.
func NewClient(node *hostos.Node, server core.EndpointName, serverKey core.Key) (*Client, error) {
	return NewClientOpts(node, server, serverKey, Options{})
}

// NewClientOpts builds a client with explicit reliability options.
func NewClientOpts(node *hostos.Node, server core.EndpointName, serverKey core.Key, opts Options) (*Client, error) {
	b := core.Attach(node)
	ep, err := b.NewEndpoint(core.Key(uint64(node.ID)<<20|uint64(node.E.Rand().Int63n(1<<20))), 4)
	if err != nil {
		return nil, err
	}
	if err := ep.Map(0, server, serverKey); err != nil {
		return nil, err
	}
	c := &Client{node: node, bundle: b, ep: ep, opts: opts, m: opts.Metrics,
		rng: node.E.Rand(), tr: b.Tracer(),
		results: make(map[uint64]*resultBuf), reissues: make(map[uint64]*reissueState),
		budget: reliab.NewBudget(opts.Budget)}
	if !opts.NoBreaker {
		c.brk = reliab.NewBreaker(opts.Breaker, opts.Metrics)
		if opts.Health != nil {
			c.brk.SetHealth(opts.Health)
		}
	}
	ep.SetHandler(hResult, c.onResult)
	ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		delete(c.reissues, args[0])
	})
	// Re-issue call fragments bounced by transient transport conditions,
	// paced by the per-server retry budget and deterministic backoff. A
	// permanent failure (no such endpoint / bad key) marks the whole client
	// dead; an exhausted budget fails just that call with ErrUnreachable —
	// a typed error the caller can retry against a replica, not a hang.
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		callID := args[0]
		if dstIdx < 0 || reason == nic.NackNoEndpoint || reason == nic.NackBadKey {
			c.dead = true
			return
		}
		rb, live := c.results[callID]
		if !live {
			delete(c.reissues, callID) // bounced fragment of an abandoned call
			return
		}
		now := p.Now()
		st := c.reissues[callID]
		if st == nil {
			st = &reissueState{}
			c.reissues[callID] = st
		}
		if st.n >= c.opts.maxAttempts() || !c.budget.Allow(now) {
			c.m.Inc("retry_denied")
			delete(c.reissues, callID)
			rb.failed = true
			return
		}
		d := c.opts.Backoff.Delay(st.n, c.rng)
		st.n++
		st.at = now
		c.m.Inc("retries")
		c.m.ObserveBackoff(d)
		// A traced call's backoff wait is its own child span, so retry storms
		// show up as backoff time in the tail attribution, not as opaque wait.
		var fl *obs.Flight
		if rb.trace != 0 {
			nid := int(c.node.ID)
			fl = c.tr.Child(rb.trace, nid, nid, obs.KindOp, now)
		}
		c.deferred = append(c.deferred, deferredSend{due: now.Add(d), dstIdx: dstIdx, h: h,
			args: args, payload: append([]byte(nil), payload...), fl: fl})
	})
	return c, nil
}

func (c *Client) onResult(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	// Acknowledge even stale results: the ack is what lets the server
	// retire its reissue bookkeeping for this call.
	defer tok.Reply(p, hCallOK, [4]uint64{args[0]})
	if rb, ok := c.results[args[0]]; ok { // else: stale result for an abandoned call
		rb.add(args, payload)
	}
}

// add assembles one result fragment: args carry (call id, total, offset,
// status).
func (rb *resultBuf) add(args [4]uint64, payload []byte) {
	if rb.data == nil {
		rb.total = int(args[1])
		rb.data = make([]byte, rb.total)
	}
	copy(rb.data[args[2]:], payload)
	rb.got += len(payload)
	rb.status = args[3]
	if rb.got >= rb.total {
		rb.done = true
	}
}

// pump flushes deferred re-issues whose backoff has elapsed, dropping ones
// whose call was abandoned meanwhile.
func (c *Client) pump(p *sim.Proc) {
	if len(c.deferred) > 0 {
		c.deferred = flushDue(p, c.ep, c.deferred, func(id uint64) bool { return c.results[id] != nil })
	}
}

// Poll services the client's endpoint and flushes due re-issues; open-loop
// callers (many pending calls per client) drive it from their main loop.
func (c *Client) Poll(p *sim.Proc) int {
	n := c.ep.Poll(p)
	c.pump(p)
	return n
}

// IdlePoll repeats Poll every tick until one dispatches something or starts
// at or after until, and returns that poll's count and start time — with the
// polls that provably find nothing elided (core.Endpoint.IdlePoll). It also
// returns, with 0, at the poll where a deferred re-issue falls due.
func (c *Client) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	n, start := idlePoll(p, c.ep, c.deferred, tick, until)
	c.pump(p)
	return n, start
}

// idlePoll runs ep.IdlePoll no further than the poll after which the
// caller's pump has something to flush. The pump runs once the poll has been
// charged, so a poll starting more than MaxPollCost before the earliest due
// time cannot reach it.
func idlePoll(p *sim.Proc, ep *core.Endpoint, deferred []deferredSend, tick sim.Duration, until sim.Time) (int, sim.Time) {
	lead := ep.MaxPollCost()
	for i := range deferred {
		until = min(until, deferred[i].due.Add(-lead))
	}
	return ep.IdlePoll(p, tick, until)
}

// waitTick is how often a blocked call polls for its result.
const waitTick = 5 * sim.Microsecond

// waitTurn is one turn of a blocking wait — poll, flush due re-issues, sleep
// a waitTick if nothing arrived — run on through every turn that would find
// nothing and end before deadline (0 = none). poll is the Client's or Pool's
// IdlePoll; it returns before the tick that follows its last poll, so that
// tick is paid here.
func waitTurn(p *sim.Proc, poll func(*sim.Proc, sim.Duration, sim.Time) (int, sim.Time), ep *core.Endpoint, deadline sim.Time) {
	until := sim.Never
	if deadline != 0 {
		until = deadline.Add(-waitTick - ep.MaxPollCost())
	}
	if n, _ := poll(p, waitTick, until); n == 0 {
		p.Sleep(waitTick)
	}
}

// Outstanding reports in-flight calls plus retry bookkeeping sizes, for
// leak invariants.
func (c *Client) Outstanding() (results, reissues, deferred int) {
	return len(c.results), len(c.reissues), len(c.deferred)
}

// BreakerState reports the client's circuit-breaker state (Closed when no
// breaker is configured).
func (c *Client) BreakerState() reliab.BreakerState {
	if c.brk == nil {
		return reliab.Closed
	}
	return c.brk.State()
}

// send runs the client-side reliability gauntlet (deadline check, breaker)
// and puts the call on the wire: a 16-byte reliab header plus args,
// fragmented at the MTU.
func (c *Client) send(p *sim.Proc, proc int, args []byte, ctx reliab.Ctx) (uint64, *resultBuf, error) {
	if len(args)+reliab.HeaderLen >= 1<<20 {
		return 0, nil, fmt.Errorf("rpc: argument size %d exceeds 1 MB framing limit", len(args))
	}
	now := p.Now()
	// Resolve the call's trace: an explicit Ctx trace (nested tier) wins,
	// else inherit the endpoint's ambient trace (set while a traced handler
	// or a root request is running). Zero means untraced — every span call
	// below becomes a no-op.
	trace := ctx.Trace
	if trace == 0 {
		trace = c.ep.Trace()
	}
	nid := int(c.node.ID)
	if ctx.Expired(now) {
		// Shed before issue: the budget is already spent, so the call never
		// touches the wire — this is what keeps an expired deadline at a
		// middle tier from fanning out to backends.
		c.m.Inc("deadline_exceeded")
		c.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageDeadlineShed, "expired-before-send", now)
		return 0, nil, ErrDeadlineExceeded
	}
	if c.brk != nil && !c.brk.Allow(now) {
		c.m.Inc("breaker_fastfail")
		c.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageBreakerOpen, "breaker-open", now)
		return 0, nil, ErrCircuitOpen
	}
	wire := make([]byte, reliab.HeaderLen+len(args))
	ctx.Encode(wire)
	copy(wire[reliab.HeaderLen:], args)
	id := c.nextID
	c.nextID++
	rb := &resultBuf{trace: trace}
	c.results[id] = rb
	mtu := c.node.NIC.Config().MTU
	meta := uint64(proc)<<40 | uint64(c.ep.Key())&(1<<40-1)
	self := uint64(c.ep.Name().Raw())
	total := len(wire)
	// Fragments posted under the ambient trace become wire spans of the
	// call's trace tree (the tracer samples at the endpoint post path).
	prev := c.ep.SetTrace(trace)
	for off := 0; off < total; off += mtu {
		end := off + mtu
		if end > total {
			end = total
		}
		ol := uint64(off)<<20 | uint64(total)
		if err := c.ep.RequestBulk(p, 0, hCall, wire[off:end], [4]uint64{id, ol, meta, self}); err != nil {
			c.ep.SetTrace(prev)
			delete(c.results, id)
			return 0, nil, err
		}
	}
	c.ep.SetTrace(prev)
	return id, rb, nil
}

// finish translates a completed call's wire status into the caller-facing
// result, and feeds the breaker: any response proves the server alive.
func (c *Client) finish(p *sim.Proc, rb *resultBuf) ([]byte, error) {
	if c.brk != nil {
		c.brk.Success(p.Now())
	}
	switch rb.status {
	case stNoProc:
		return nil, ErrNoProc
	case stErr:
		return nil, fmt.Errorf("rpc: remote error: %s", rb.data)
	case stDeadline:
		c.m.Inc("deadline_exceeded")
		return nil, ErrDeadlineExceeded
	case stOverload:
		return nil, ErrOverload
	}
	return rb.data, nil
}

// fail records a transport-level failure with the breaker.
func (c *Client) fail(p *sim.Proc, err error) error {
	if c.brk != nil {
		c.brk.Failure(p.Now())
	}
	return err
}

// Call invokes procedure proc with args and returns its result, blocking
// until it completes, the transport declares the server unreachable, or
// timeout elapses (0 = no timeout). A non-zero timeout propagates to the
// server as an absolute deadline: work the server cannot start in time is
// shed there instead of executed into the void.
func (c *Client) Call(p *sim.Proc, proc int, args []byte, timeout sim.Duration) ([]byte, error) {
	ctx := reliab.Ctx{}
	if timeout > 0 {
		ctx.Deadline = p.Now().Add(timeout)
	}
	return c.CallCtx(p, proc, args, ctx)
}

// CallCtx is Call with an explicit reliability context — the form nested
// tiers use to inherit the caller's remaining deadline budget.
func (c *Client) CallCtx(p *sim.Proc, proc int, args []byte, ctx reliab.Ctx) ([]byte, error) {
	id, rb, err := c.send(p, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	pc := Pending{c: c, id: id, rb: rb, ctx: ctx}
	return pc.WaitTimeout(p, 0)
}

// Pending is an in-flight asynchronous call.
type Pending struct {
	c   *Client
	id  uint64
	rb  *resultBuf
	ctx reliab.Ctx
}

// Go starts an asynchronous call; harvest it with Wait, WaitTimeout or
// TryWait. Concurrent pending calls to the same server pipeline on the
// wire, which is how a single client overlaps stripe transfers to many
// storage servers.
func (c *Client) Go(p *sim.Proc, proc int, args []byte) (*Pending, error) {
	return c.GoCtx(p, proc, args, reliab.Ctx{})
}

// GoCtx is Go with an explicit reliability context (deadline and
// idempotency key travel to the server).
func (c *Client) GoCtx(p *sim.Proc, proc int, args []byte, ctx reliab.Ctx) (*Pending, error) {
	id, rb, err := c.send(p, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	return &Pending{c: c, id: id, rb: rb, ctx: ctx}, nil
}

// Wait blocks until the pending call completes and returns its result.
func (pc *Pending) Wait(p *sim.Proc) ([]byte, error) {
	return pc.WaitTimeout(p, 0)
}

// WaitTimeout is Wait with a deadline (0 = none). On ErrTimeout the call is
// abandoned: a result arriving later is dropped as stale.
func (pc *Pending) WaitTimeout(p *sim.Proc, timeout sim.Duration) ([]byte, error) {
	c := pc.c
	defer pc.Abandon()
	deadline := pc.ctx.Deadline
	if timeout > 0 {
		deadline = p.Now().Add(timeout)
	}
	for !pc.rb.done {
		if c.dead || pc.rb.failed {
			return nil, c.fail(p, ErrUnreachable)
		}
		if deadline != 0 && p.Now() >= deadline {
			return nil, c.fail(p, ErrTimeout)
		}
		waitTurn(p, c.IdlePoll, c.ep, deadline)
	}
	return c.finish(p, pc.rb)
}

// TryWait harvests the call without blocking: done reports whether it
// finished (successfully or not). Open-loop generators drive many pending
// calls through one Poll loop and TryWait each.
func (pc *Pending) TryWait(p *sim.Proc) (result []byte, done bool, err error) {
	c := pc.c
	if c.dead || pc.rb.failed {
		pc.Abandon()
		return nil, true, c.fail(p, ErrUnreachable)
	}
	if !pc.rb.done {
		return nil, false, nil
	}
	result, err = c.finish(p, pc.rb)
	pc.Abandon()
	return result, true, err
}

// Abandon drops the pending call's client-side bookkeeping; a result
// arriving later is dropped as stale (and still acknowledged, so the
// server cleans up too). Idempotent.
func (pc *Pending) Abandon() {
	delete(pc.c.results, pc.id)
	delete(pc.c.reissues, pc.id)
}

// Deadline reports the pending call's absolute deadline (0 = none).
func (pc *Pending) Deadline() sim.Time { return pc.ctx.Deadline }

// Close releases the client's endpoint.
func (c *Client) Close(p *sim.Proc) { c.bundle.Close(p) }
