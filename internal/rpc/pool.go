package rpc

// Pool is a multi-target RPC client: one endpoint (one NI frame slot)
// fanning out to many servers through per-target translation slots. A
// serving client that talks to 32 KV shards through per-server Clients
// would pin 32 endpoints onto an 8-frame NIC and thrash the frame cache;
// a Pool keeps the whole fan-out on a single endpoint, which is exactly
// the paper's point about endpoint virtualization: the *translation
// table*, not the endpoint count, scales with the peer set.
//
// Reliability state is per target — retry budget, circuit breaker, dead
// marker — so one crashed shard fails fast without poisoning calls to its
// neighbors, while the transport bookkeeping (result assembly, deferred
// re-issues) is shared.

import (
	"fmt"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// poolTarget is one server reachable through the pool.
type poolTarget struct {
	name   core.EndpointName
	budget *reliab.Budget
	brk    *reliab.Breaker
	dead   bool // permanent nack: endpoint gone or key revoked
}

// poolResult extends resultBuf with the target it came from, so completion
// feeds the right breaker.
type poolResult struct {
	resultBuf
	tgt int
}

// Pool issues calls to a set of servers over one shared endpoint.
type Pool struct {
	node   *hostos.Node
	bundle *core.Bundle
	ep     *core.Endpoint
	opts   Options
	m      *reliab.Metrics
	rng    *rand.Rand
	tr     *obs.Tracer

	targets []poolTarget

	nextID   uint64
	results  map[uint64]*poolResult
	reissues map[uint64]*reissueState
	deferred []deferredSend
}

// NewPool creates a pool client on node with room for maxTargets servers.
// Targets are added with Add; the endpoint's translation table is sized to
// maxTargets up front because the table is frame-resident state.
func NewPool(node *hostos.Node, maxTargets int, opts Options) (*Pool, error) {
	if maxTargets <= 0 {
		return nil, fmt.Errorf("rpc: pool needs at least one target slot")
	}
	b := core.Attach(node)
	ep, err := b.NewEndpoint(core.Key(uint64(node.ID)<<20|uint64(node.E.Rand().Int63n(1<<20))), maxTargets)
	if err != nil {
		return nil, err
	}
	pl := &Pool{node: node, bundle: b, ep: ep, opts: opts, m: opts.Metrics,
		rng: node.E.Rand(), tr: b.Tracer(),
		results: make(map[uint64]*poolResult), reissues: make(map[uint64]*reissueState)}
	ep.SetHandler(hResult, pl.onResult)
	ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		delete(pl.reissues, args[0])
	})
	// Same re-issue policy as Client, but budgets and dead markers are per
	// target: the bounced fragment's translation slot identifies which.
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		callID := args[0]
		if dstIdx < 0 {
			return
		}
		if reason == nic.NackNoEndpoint || reason == nic.NackBadKey {
			if dstIdx < len(pl.targets) {
				pl.targets[dstIdx].dead = true
			}
			return
		}
		rb, live := pl.results[callID]
		if !live {
			delete(pl.reissues, callID)
			return
		}
		now := p.Now()
		st := pl.reissues[callID]
		if st == nil {
			st = &reissueState{}
			pl.reissues[callID] = st
		}
		if st.n >= pl.opts.maxAttempts() || !pl.targets[dstIdx].budget.Allow(now) {
			pl.m.Inc("retry_denied")
			delete(pl.reissues, callID)
			rb.failed = true
			return
		}
		d := pl.opts.Backoff.Delay(st.n, pl.rng)
		st.n++
		st.at = now
		pl.m.Inc("retries")
		pl.m.ObserveBackoff(d)
		// The backoff wait becomes a child span of the call's trace, so a
		// request that missed its SLO because its fragments kept bouncing
		// attributes that time to backoff, not generic rpc-wait.
		var fl *obs.Flight
		if rb.trace != 0 {
			nid := int(pl.node.ID)
			fl = pl.tr.Child(rb.trace, nid, nid, obs.KindOp, now)
		}
		pl.deferred = append(pl.deferred, deferredSend{due: now.Add(d), dstIdx: dstIdx, h: h,
			args: args, payload: append([]byte(nil), payload...), fl: fl})
	})
	return pl, nil
}

// Add maps one more server into the pool and returns its target index.
func (pl *Pool) Add(server core.EndpointName, serverKey core.Key) (int, error) {
	idx := len(pl.targets)
	if err := pl.ep.Map(idx, server, serverKey); err != nil {
		return 0, err
	}
	t := poolTarget{name: server, budget: reliab.NewBudget(pl.opts.Budget)}
	if !pl.opts.NoBreaker {
		t.brk = reliab.NewBreaker(pl.opts.Breaker, pl.opts.Metrics)
		if pl.opts.Health != nil {
			t.brk.SetHealth(pl.opts.Health)
		}
	}
	pl.targets = append(pl.targets, t)
	return idx, nil
}

// Targets returns how many servers are mapped.
func (pl *Pool) Targets() int { return len(pl.targets) }

// Dead reports whether target tgt hit a permanent transport failure
// (endpoint gone / key revoked).
func (pl *Pool) Dead(tgt int) bool { return pl.targets[tgt].dead }

// BreakerState reports target tgt's circuit-breaker state.
func (pl *Pool) BreakerState(tgt int) reliab.BreakerState {
	if pl.targets[tgt].brk == nil {
		return reliab.Closed
	}
	return pl.targets[tgt].brk.State()
}

func (pl *Pool) onResult(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	defer tok.Reply(p, hCallOK, [4]uint64{args[0]})
	if rb, ok := pl.results[args[0]]; ok { // else: stale result for an abandoned call
		rb.add(args, payload)
	}
}

// pump flushes deferred re-issues whose backoff has elapsed.
func (pl *Pool) pump(p *sim.Proc) {
	if len(pl.deferred) > 0 {
		pl.deferred = flushDue(p, pl.ep, pl.deferred, func(id uint64) bool { return pl.results[id] != nil })
	}
}

// Poll services the pool's endpoint and flushes due re-issues.
func (pl *Pool) Poll(p *sim.Proc) int {
	n := pl.ep.Poll(p)
	pl.pump(p)
	return n
}

// IdlePoll is Client.IdlePoll for the pool's shared endpoint.
func (pl *Pool) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	n, start := idlePoll(p, pl.ep, pl.deferred, tick, until)
	pl.pump(p)
	return n, start
}

// Outstanding reports in-flight calls plus retry bookkeeping sizes, for
// leak invariants.
func (pl *Pool) Outstanding() (results, reissues, deferred int) {
	return len(pl.results), len(pl.reissues), len(pl.deferred)
}

// send mirrors Client.send against target tgt.
func (pl *Pool) send(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) (uint64, *poolResult, error) {
	if tgt < 0 || tgt >= len(pl.targets) {
		return 0, nil, fmt.Errorf("rpc: pool target %d out of range", tgt)
	}
	if len(args)+reliab.HeaderLen >= 1<<20 {
		return 0, nil, fmt.Errorf("rpc: argument size %d exceeds 1 MB framing limit", len(args))
	}
	t := &pl.targets[tgt]
	now := p.Now()
	// Like Client.send: an explicit Ctx trace wins, else the endpoint's
	// ambient trace. Zero disables every span call below.
	trace := ctx.Trace
	if trace == 0 {
		trace = pl.ep.Trace()
	}
	nid := int(pl.node.ID)
	if ctx.Expired(now) {
		pl.m.Inc("deadline_exceeded")
		pl.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageDeadlineShed, "expired-before-send", now)
		return 0, nil, ErrDeadlineExceeded
	}
	if t.brk != nil && !t.brk.Allow(now) {
		pl.m.Inc("breaker_fastfail")
		pl.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageBreakerOpen, "breaker-open", now)
		return 0, nil, ErrCircuitOpen
	}
	wire := make([]byte, reliab.HeaderLen+len(args))
	ctx.Encode(wire)
	copy(wire[reliab.HeaderLen:], args)
	id := pl.nextID
	pl.nextID++
	rb := &poolResult{tgt: tgt}
	rb.trace = trace
	pl.results[id] = rb
	mtu := pl.node.NIC.Config().MTU
	meta := uint64(proc)<<40 | uint64(pl.ep.Key())&(1<<40-1)
	self := uint64(pl.ep.Name().Raw())
	total := len(wire)
	prev := pl.ep.SetTrace(trace)
	for off := 0; off < total; off += mtu {
		end := off + mtu
		if end > total {
			end = total
		}
		ol := uint64(off)<<20 | uint64(total)
		if err := pl.ep.RequestBulk(p, tgt, hCall, wire[off:end], [4]uint64{id, ol, meta, self}); err != nil {
			pl.ep.SetTrace(prev)
			delete(pl.results, id)
			return 0, nil, err
		}
	}
	pl.ep.SetTrace(prev)
	return id, rb, nil
}

// finish translates a completed call's wire status and feeds the target's
// breaker: any response proves that server alive.
func (pl *Pool) finish(p *sim.Proc, rb *poolResult) ([]byte, error) {
	if brk := pl.targets[rb.tgt].brk; brk != nil {
		brk.Success(p.Now())
	}
	switch rb.status {
	case stNoProc:
		return nil, ErrNoProc
	case stErr:
		return nil, fmt.Errorf("rpc: remote error: %s", rb.data)
	case stDeadline:
		pl.m.Inc("deadline_exceeded")
		return nil, ErrDeadlineExceeded
	case stOverload:
		return nil, ErrOverload
	}
	return rb.data, nil
}

// fail records a transport-level failure against target tgt's breaker.
func (pl *Pool) fail(p *sim.Proc, tgt int, err error) error {
	if brk := pl.targets[tgt].brk; brk != nil {
		brk.Failure(p.Now())
	}
	return err
}

// PoolPending is an in-flight asynchronous pool call.
type PoolPending struct {
	pl  *Pool
	id  uint64
	rb  *poolResult
	ctx reliab.Ctx
}

// GoCtx starts an asynchronous call to target tgt with an explicit
// reliability context; harvest with TryWait/WaitTimeout or drop with
// Abandon. Pending calls to different targets pipeline on the one shared
// endpoint — this is the fan-out primitive the inference gateway and the
// KV replication writes are built on.
func (pl *Pool) GoCtx(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) (*PoolPending, error) {
	id, rb, err := pl.send(p, tgt, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	return &PoolPending{pl: pl, id: id, rb: rb, ctx: ctx}, nil
}

// CallCtx is a blocking convenience over GoCtx + WaitTimeout.
func (pl *Pool) CallCtx(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) ([]byte, error) {
	pc, err := pl.GoCtx(p, tgt, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	return pc.WaitTimeout(p, 0)
}

// Target reports which pool target the call was issued to.
func (pc *PoolPending) Target() int { return pc.rb.tgt }

// Deadline reports the pending call's absolute deadline (0 = none).
func (pc *PoolPending) Deadline() sim.Time { return pc.ctx.Deadline }

// WaitTimeout blocks until the call completes or deadline/timeout passes
// (0 = use the context deadline; both 0 = no timeout).
func (pc *PoolPending) WaitTimeout(p *sim.Proc, timeout sim.Duration) ([]byte, error) {
	pl := pc.pl
	defer pc.Abandon()
	deadline := pc.ctx.Deadline
	if timeout > 0 {
		deadline = p.Now().Add(timeout)
	}
	for !pc.rb.done {
		if pl.targets[pc.rb.tgt].dead || pc.rb.failed {
			return nil, pl.fail(p, pc.rb.tgt, ErrUnreachable)
		}
		if deadline != 0 && p.Now() >= deadline {
			return nil, pl.fail(p, pc.rb.tgt, ErrTimeout)
		}
		waitTurn(p, pl.IdlePoll, pl.ep, deadline)
	}
	return pl.finish(p, pc.rb)
}

// TryWait harvests the call without blocking: done reports whether it
// finished (successfully or not).
func (pc *PoolPending) TryWait(p *sim.Proc) (result []byte, done bool, err error) {
	pl := pc.pl
	if pl.targets[pc.rb.tgt].dead || pc.rb.failed {
		pc.Abandon()
		return nil, true, pl.fail(p, pc.rb.tgt, ErrUnreachable)
	}
	if !pc.rb.done {
		return nil, false, nil
	}
	result, err = pl.finish(p, pc.rb)
	pc.Abandon()
	return result, true, err
}

// Abandon drops the pending call's bookkeeping; a result arriving later is
// dropped as stale (and still acknowledged, so the server cleans up too).
// Idempotent.
func (pc *PoolPending) Abandon() {
	delete(pc.pl.results, pc.id)
	delete(pc.pl.reissues, pc.id)
}

// Close releases the pool's endpoint.
func (pl *Pool) Close(p *sim.Proc) { pl.bundle.Close(p) }
