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
// neighbors, while the transport bookkeeping (result assembly, parked
// re-issues) is shared.
//
// Pool is the only client implementation: Client is a Pool with exactly one
// target.

import (
	"fmt"

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

// resultBuf assembles one call's result fragments.
type resultBuf struct {
	data   []byte
	got    int
	total  int
	status uint64
	done   bool
	failed bool   // call fragments kept bouncing: server unreachable
	trace  uint64 // trace id of the sampled request (0 = untraced)
	tgt    int    // the target called, so completion feeds the right breaker
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

// Pool issues calls to a set of servers over one shared endpoint.
type Pool struct {
	node *hostos.Node
	ep   *core.Endpoint
	opts Options
	m    *reliab.Metrics
	tr   *obs.Tracer

	targets []poolTarget

	nextID  uint64
	results map[uint64]*resultBuf
	// retry re-issues bounced call fragments, capped per call and paced by
	// the called target's budget.
	retry *reliab.Retrier[uint64]
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
	pl := &Pool{node: node, ep: ep, opts: opts, m: opts.Metrics, tr: b.Tracer(),
		results: make(map[uint64]*resultBuf),
		retry:   reliab.NewRetrier[uint64](node.E.Rand())}
	pl.retry.Metrics, pl.retry.Tracer, pl.retry.Node = opts.Metrics, pl.tr, int(node.ID)
	ep.SetHandler(hResult, pl.onResult)
	ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		pl.retry.Forget(args[0])
	})
	ep.SetReturnHandler(pl.onReturn)
	return pl, nil
}

// onReturn re-issues call fragments bounced by transient transport
// conditions, paced by the target's retry budget and deterministic backoff.
// A permanent failure (no such endpoint / bad key) marks the target dead;
// an exhausted cap or budget fails just that call with ErrUnreachable — a
// typed error the caller can retry against a replica, not a hang.
func (pl *Pool) onReturn(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
	if reason.Permanent(dstIdx) {
		// A bounced reply (the hCallOK ack of a result) names no slot: which
		// target it was for is unambiguous only with exactly one target.
		if dstIdx < 0 && len(pl.targets) == 1 {
			dstIdx = 0
		}
		if dstIdx >= 0 && dstIdx < len(pl.targets) {
			pl.targets[dstIdx].dead = true
		}
		return
	}
	id := args[0]
	rb := pl.results[id]
	if rb == nil {
		pl.retry.Forget(id) // bounced fragment of an abandoned call
		return
	}
	send := reliab.Send{DstIdx: dstIdx, H: h, Args: args, Payload: payload, Trace: rb.trace}
	if pl.retry.Bounce(p.Now(), id, reason, pl.targets[dstIdx].budget, send) == reliab.Denied {
		rb.failed = true
	}
}

// Add maps one more server into the pool and returns its target index.
func (pl *Pool) Add(server core.EndpointName, serverKey core.Key) (int, error) {
	idx := len(pl.targets)
	if err := pl.ep.Map(idx, server, serverKey); err != nil {
		return 0, err
	}
	t := poolTarget{name: server, budget: reliab.NewBudget(reliab.BudgetConfig{})}
	if !pl.opts.NoBreaker {
		t.brk = reliab.NewBreaker(pl.opts.Metrics)
	}
	pl.targets = append(pl.targets, t)
	return idx, nil
}

// Targets returns how many servers are mapped.
func (pl *Pool) Targets() int { return len(pl.targets) }

func (pl *Pool) onResult(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	// Acknowledge even stale results: the ack is what lets the server
	// retire its reissue bookkeeping for this call.
	defer tok.Reply(p, hCallOK, [4]uint64{args[0]})
	if rb, ok := pl.results[args[0]]; ok { // else: stale result for an abandoned call
		rb.add(args, payload)
	}
}

// live reports whether a parked fragment's call is still awaited; the
// fragments of abandoned calls are dropped, not re-sent.
func (pl *Pool) live(s reliab.Send) bool { return pl.results[s.Args[0]] != nil }

// Poll services the pool's endpoint and flushes due re-issues; open-loop
// callers (many pending calls per pool) drive it from their main loop.
func (pl *Pool) Poll(p *sim.Proc) int {
	n := pl.ep.Poll(p)
	pl.retry.Flush(p, pl.ep, pl.live)
	return n
}

// IdlePoll repeats Poll every tick until one dispatches something or starts
// at or after until, and returns that poll's count and start time — with the
// polls that provably find nothing elided (core.Endpoint.IdlePoll). It also
// returns, with 0, at the poll where a parked re-issue falls due: the flush
// runs once the poll has been charged, so a poll starting more than
// MaxPollCost before the earliest due time cannot reach it.
func (pl *Pool) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	if due := pl.retry.NextDue(); due != sim.Never {
		until = min(until, due.Add(-pl.ep.MaxPollCost()))
	}
	n, start := pl.ep.IdlePoll(p, tick, until)
	pl.retry.Flush(p, pl.ep, pl.live)
	return n, start
}

// Outstanding reports in-flight calls plus retry bookkeeping sizes, for
// leak invariants.
func (pl *Pool) Outstanding() (results, reissues, deferred int) {
	reissues, deferred = pl.retry.Outstanding()
	return len(pl.results), reissues, deferred
}

// send runs the client-side reliability gauntlet (deadline check, breaker)
// and puts the call to target tgt on the wire: a 16-byte reliab header plus
// args, fragmented at the MTU.
func (pl *Pool) send(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) (PoolPending, error) {
	if tgt < 0 || tgt >= len(pl.targets) {
		return PoolPending{}, fmt.Errorf("rpc: pool target %d out of range", tgt)
	}
	if len(args)+reliab.HeaderLen >= 1<<20 {
		return PoolPending{}, fmt.Errorf("rpc: argument size %d exceeds 1 MB framing limit", len(args))
	}
	t := &pl.targets[tgt]
	now := p.Now()
	// Resolve the call's trace: an explicit Ctx trace (nested tier) wins,
	// else inherit the endpoint's ambient trace (set while a traced handler
	// or a root request is running). Zero means untraced — every span call
	// below becomes a no-op.
	trace := ctx.Trace
	if trace == 0 {
		trace = pl.ep.Trace()
	}
	nid := int(pl.node.ID)
	if ctx.Expired(now) {
		// Shed before issue: the budget is already spent, so the call never
		// touches the wire — this is what keeps an expired deadline at a
		// middle tier from fanning out to backends.
		pl.m.Inc("deadline_exceeded")
		pl.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageDeadlineShed, "expired-before-send", now)
		return PoolPending{}, ErrDeadlineExceeded
	}
	if t.brk != nil && !t.brk.Allow(now) {
		pl.m.Inc("breaker_fastfail")
		pl.tr.Child(trace, nid, nid, obs.KindOp, now).Drop(obs.StageBreakerOpen, "breaker-open", now)
		return PoolPending{}, ErrCircuitOpen
	}
	wire := make([]byte, reliab.HeaderLen+len(args))
	ctx.Encode(wire)
	copy(wire[reliab.HeaderLen:], args)
	id := pl.nextID
	pl.nextID++
	rb := &resultBuf{trace: trace, tgt: tgt}
	pl.results[id] = rb
	meta := uint64(proc)<<40 | uint64(pl.ep.Key())&(1<<40-1)
	self := uint64(pl.ep.Name().Raw())
	total := len(wire)
	// Fragments posted under the ambient trace become wire spans of the
	// call's trace tree (the tracer samples at the endpoint post path).
	prev := pl.ep.SetTrace(trace)
	for off := 0; off < total; off += nic.MTU {
		end := off + nic.MTU
		if end > total {
			end = total
		}
		ol := uint64(off)<<20 | uint64(total)
		if err := pl.ep.RequestBulk(p, tgt, hCall, wire[off:end], [4]uint64{id, ol, meta, self}); err != nil {
			pl.ep.SetTrace(prev)
			delete(pl.results, id)
			return PoolPending{}, err
		}
	}
	pl.ep.SetTrace(prev)
	return PoolPending{pl: pl, id: id, rb: rb, ctx: ctx}, nil
}

// finish translates a completed call's wire status into the caller-facing
// result and feeds the target's breaker: any response proves that server
// alive.
func (pl *Pool) finish(p *sim.Proc, rb *resultBuf) ([]byte, error) {
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

// PoolPending is an in-flight asynchronous call.
type PoolPending struct {
	pl  *Pool
	id  uint64
	rb  *resultBuf
	ctx reliab.Ctx
}

// GoCtx starts an asynchronous call to target tgt with an explicit
// reliability context (deadline and idempotency key travel to the server);
// harvest with WaitTimeout/TryWait or drop with Abandon. Pending calls
// — to one target or to several — pipeline on the one shared endpoint: this
// is the fan-out primitive the inference gateway and the KV replication
// writes are built on, and how a single client overlaps transfers to many
// servers.
func (pl *Pool) GoCtx(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) (*PoolPending, error) {
	pc, err := pl.send(p, tgt, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	return &pc, nil
}

// CallCtx is the blocking form: send, then wait out the context deadline.
// Its pending call lives on the stack.
func (pl *Pool) CallCtx(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) ([]byte, error) {
	pc, err := pl.send(p, tgt, proc, args, ctx)
	if err != nil {
		return nil, err
	}
	return pc.WaitTimeout(p, 0)
}

// unreachable reports whether the transport has given up on the call: its
// target is dead, or its fragments ran out of retries.
func (pc *PoolPending) unreachable() bool {
	return pc.pl.targets[pc.rb.tgt].dead || pc.rb.failed
}

// waitTick is how often a blocked call polls for its result.
const waitTick = 5 * sim.Microsecond

// WaitTimeout blocks until the call completes, the transport declares the
// server unreachable, or the deadline passes: timeout from now if non-zero,
// else the context deadline (both 0 = none). On ErrTimeout the call is
// abandoned: a result arriving later is dropped as stale.
func (pc *PoolPending) WaitTimeout(p *sim.Proc, timeout sim.Duration) ([]byte, error) {
	pl := pc.pl
	defer pc.Abandon()
	deadline := pc.ctx.Deadline
	if timeout > 0 {
		deadline = p.Now().Add(timeout)
	}
	// Every turn is poll, flush due re-issues, sleep a waitTick if nothing
	// arrived; IdlePoll runs on through the turns that would find nothing and
	// end before the deadline, and returns before the tick that follows its
	// last poll, so that tick is paid here.
	until := sim.Never
	if deadline != 0 {
		until = deadline.Add(-waitTick - pl.ep.MaxPollCost())
	}
	for !pc.rb.done {
		if pc.unreachable() {
			return nil, pl.fail(p, pc.rb.tgt, ErrUnreachable)
		}
		if deadline != 0 && p.Now() >= deadline {
			return nil, pl.fail(p, pc.rb.tgt, ErrTimeout)
		}
		if n, _ := pl.IdlePoll(p, waitTick, until); n == 0 {
			p.Sleep(waitTick)
		}
	}
	return pl.finish(p, pc.rb)
}

// TryWait harvests the call without blocking: done reports whether it
// finished (successfully or not). Open-loop generators drive many pending
// calls through one Poll loop and TryWait each.
func (pc *PoolPending) TryWait(p *sim.Proc) (result []byte, done bool, err error) {
	switch {
	case pc.unreachable():
		err = pc.pl.fail(p, pc.rb.tgt, ErrUnreachable)
	case pc.rb.done:
		result, err = pc.pl.finish(p, pc.rb)
	default:
		return nil, false, nil
	}
	pc.Abandon()
	return result, true, err
}

// Abandon drops the pending call's bookkeeping; a result arriving later is
// dropped as stale (and still acknowledged, so the server cleans up too).
// Idempotent.
func (pc *PoolPending) Abandon() {
	delete(pc.pl.results, pc.id)
	pc.pl.retry.Forget(pc.id)
}

// Client issues calls to one server: a Pool with exactly one target, and so
// the one kind of pool for which a bounced reply is a verdict on the server
// (see Pool.onReturn).
type Client struct{ pl *Pool }

// NewClient builds a client on node bound to the server's endpoint, with
// default reliability options.
func NewClient(node *hostos.Node, server core.EndpointName, serverKey core.Key) (*Client, error) {
	return NewClientOpts(node, server, serverKey, Options{})
}

// NewClientOpts builds a client with explicit reliability options.
func NewClientOpts(node *hostos.Node, server core.EndpointName, serverKey core.Key, opts Options) (*Client, error) {
	pl, err := NewPool(node, 1, opts)
	if err != nil {
		return nil, err
	}
	if _, err := pl.Add(server, serverKey); err != nil {
		return nil, err
	}
	return &Client{pl}, nil
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
	return c.pl.CallCtx(p, 0, proc, args, ctx)
}

// CallCtx is Call with an explicit reliability context — the form nested
// tiers use to inherit the caller's remaining deadline budget.
func (c *Client) CallCtx(p *sim.Proc, proc int, args []byte, ctx reliab.Ctx) ([]byte, error) {
	return c.pl.CallCtx(p, 0, proc, args, ctx)
}

// Poll and Outstanding are the pool's.
func (c *Client) Poll(p *sim.Proc) int                           { return c.pl.Poll(p) }
func (c *Client) Outstanding() (results, reissues, deferred int) { return c.pl.Outstanding() }
