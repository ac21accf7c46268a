package rpc

// Pool is a multi-target RPC client: one endpoint (one NI frame slot)
// fanning out to many servers through per-target translation slots. A
// serving client that talks to 32 KV shards through per-server Clients
// would pin 32 endpoints onto an 8-frame NIC and thrash the frame cache;
// a Pool keeps the whole fan-out on a single endpoint, which is exactly
// the paper's point about endpoint virtualization: the *translation
// table*, not the endpoint count, scales with the peer set.
//
// Reliability state is per target — circuit breaker, dead marker — so one
// crashed shard fails fast without poisoning calls to its neighbors, while
// the transport bookkeeping (result assembly) is shared. A returned call
// fragment is settled where it lands and never re-sent: the NI has already
// retried it (§5.1) before giving it back (§3.2), so a permanent return
// marks its target dead and any other fails that one call.
//
// Pool is the only client implementation: Client is a Pool with exactly one
// target.

import (
	"errors"
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
	brk  *reliab.Breaker
	dead bool // permanent nack: endpoint gone or key revoked
}

// resultBuf is one call's record: the wire image of its call, and the
// assembly of its result fragments. Records recycle through the pool's free
// list once the result is harvested; id names the call that holds one, so a
// PoolPending can tell its own call from the next one to reuse the record.
type resultBuf struct {
	id     uint64 // the call holding the record; noCall once released
	wire   []byte // header + args as sent; its backing array recycles too
	data   []byte // the result, handed to the caller: never recycled
	got    int
	total  int
	status uint64
	done   bool
	failed bool // a call fragment came back: server unreachable
	tgt    int  // the target called, so completion feeds the right breaker
	next   *resultBuf
}

// noCall is the id of a released record: call ids count up from 0 and never
// reach it.
const noCall = ^uint64(0)

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
	free    *resultBuf // harvested records, LIFO
}

// NewPool creates a pool client on node with room for maxTargets servers.
// Targets are added with Add, each into the next translation slot; the
// endpoint's table has maxTargets slots of capacity and stores only those
// Add has mapped.
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
		results: make(map[uint64]*resultBuf)}
	// A server's hCallOK replies only return credit, so they have no handler.
	ep.SetHandler(hResult, pl.onResult)
	ep.SetReturnHandler(pl.onReturn)
	return pl, nil
}

// onReturn settles a returned message at once. A permanent failure (no such
// endpoint / bad key) marks the target dead; any other return fails just the
// call its fragment carried with ErrUnreachable — a typed error the caller
// can retry against a replica, not a hang — and its waiter charges the
// target's breaker.
func (pl *Pool) onReturn(_ *sim.Proc, reason nic.NackReason, dstIdx, _ int, args [4]uint64, _ []byte) {
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
	if rb := pl.results[args[0]]; rb != nil { // else: an abandoned call's
		rb.failed = true
	}
}

// Add maps one more server into the pool as target Targets()-1.
func (pl *Pool) Add(server core.EndpointName, serverKey core.Key) error {
	if err := pl.ep.Map(len(pl.targets), server, serverKey); err != nil {
		return err
	}
	var t poolTarget
	if !pl.opts.NoBreaker {
		t.brk = reliab.NewBreaker(pl.opts.Metrics)
	}
	pl.targets = append(pl.targets, t)
	return nil
}

// Targets returns how many servers are mapped.
func (pl *Pool) Targets() int { return len(pl.targets) }

func (pl *Pool) onResult(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	// Acknowledge even stale results: the ack is what lets the server
	// recycle a result that lives in its call record.
	defer tok.Reply(p, hCallOK, [4]uint64{args[0]})
	if rb, ok := pl.results[args[0]]; ok { // else: stale result for an abandoned call
		rb.add(args, payload)
	}
}

// Poll services the pool's endpoint; open-loop callers (many pending calls
// per pool) drive it from their main loop.
func (pl *Pool) Poll(p *sim.Proc) int { return pl.ep.Poll(p) }

// IdlePoll repeats Poll every tick until one dispatches something or starts
// at or after until, and returns that poll's count and start time — with the
// polls that provably find nothing elided (core.Endpoint.IdlePoll).
func (pl *Pool) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	return pl.ep.IdlePoll(p, tick, until)
}

// Outstanding reports in-flight calls, for leak invariants. A pool keeps no
// re-issue or deferred-send state, so reissues and deferred are always 0.
func (pl *Pool) Outstanding() (results, reissues, deferred int) {
	return len(pl.results), 0, 0
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
	id := pl.nextID
	pl.nextID++
	rb := pl.record(id, tgt, reliab.HeaderLen+len(args))
	wire := rb.wire
	ctx.Encode(wire)
	copy(wire[reliab.HeaderLen:], args)
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
			// Fragments already posted alias rb.wire: the record is left to
			// the collector, not recycled.
			delete(pl.results, id)
			return PoolPending{}, err
		}
	}
	pl.ep.SetTrace(prev)
	return PoolPending{pl: pl, id: id, rb: rb, ctx: ctx}, nil
}

// record takes a call record from the free list, or makes one, with a
// wire buffer of n bytes.
func (pl *Pool) record(id uint64, tgt, n int) *resultBuf {
	rb := pl.free
	if rb == nil {
		rb = &resultBuf{}
	} else {
		pl.free = rb.next
	}
	wire := rb.wire
	if cap(wire) < n {
		wire = make([]byte, n)
	}
	*rb = resultBuf{id: id, wire: wire[:n], tgt: tgt}
	return rb
}

// finish translates a completed call's wire status into the caller-facing
// result and feeds the target's breaker: any response proves that server
// alive.
func (pl *Pool) finish(rb *resultBuf) ([]byte, error) {
	if brk := pl.targets[rb.tgt].brk; brk != nil {
		brk.Success()
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

// PoolPending is an in-flight asynchronous call. It is a value: copies
// name the same call, and once one of them harvests or abandons it, every
// copy is inert — the record it points at may already carry a newer call.
type PoolPending struct {
	pl  *Pool
	id  uint64
	rb  *resultBuf
	ctx reliab.Ctx
}

// errSpent answers a handle whose call was already harvested or abandoned.
var errSpent = errors.New("rpc: call already harvested or abandoned")

// GoCtx starts an asynchronous call to target tgt with an explicit
// reliability context (deadline and idempotency key travel to the server);
// harvest with WaitTimeout/TryWait or drop with Abandon. Pending calls
// — to one target or to several — pipeline on the one shared endpoint: this
// is the fan-out primitive the inference gateway and the KV replication
// writes are built on, and how a single client overlaps transfers to many
// servers. args are copied before GoCtx returns.
func (pl *Pool) GoCtx(p *sim.Proc, tgt, proc int, args []byte, ctx reliab.Ctx) (PoolPending, error) {
	return pl.send(p, tgt, proc, args, ctx)
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

// live reports whether the handle still names its call.
func (pc *PoolPending) live() bool { return pc.rb != nil && pc.rb.id == pc.id }

// unreachable reports whether the transport has given up on the call: its
// target is dead, or one of its fragments came back.
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
	if !pc.live() {
		return nil, errSpent
	}
	pl := pc.pl
	defer pc.Abandon()
	deadline := pc.ctx.Deadline
	if timeout > 0 {
		deadline = p.Now().Add(timeout)
	}
	// Every turn is poll, sleep a waitTick if nothing arrived; IdlePoll runs on through the turns that would find nothing and
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
	return pc.harvest()
}

// TryWait harvests the call without blocking: done reports whether it
// finished (successfully or not). Open-loop generators drive many pending
// calls through one Poll loop and TryWait each.
func (pc *PoolPending) TryWait(p *sim.Proc) (result []byte, done bool, err error) {
	switch {
	case !pc.live():
		return nil, true, errSpent
	case pc.unreachable():
		err = pc.pl.fail(p, pc.rb.tgt, ErrUnreachable)
		pc.Abandon()
	case pc.rb.done:
		result, err = pc.harvest()
	default:
		return nil, false, nil
	}
	return result, true, err
}

// harvest returns a completed call's result and recycles its record. By
// now the server has assembled every call fragment — it answers only a
// whole call — so nothing will read rb.wire again; rb.data goes to the
// caller.
func (pc *PoolPending) harvest() ([]byte, error) {
	pl, rb := pc.pl, pc.rb
	result, err := pl.finish(rb)
	delete(pl.results, pc.id)
	*rb = resultBuf{id: noCall, wire: rb.wire, next: pl.free}
	pl.free = rb
	return result, err
}

// Abandon drops the pending call's bookkeeping; a result arriving later is
// dropped as stale (and still acknowledged, so the server cleans up too).
// The record is not recycled: a call fragment may still be unassembled at
// the server, reading rb.wire. Idempotent, and inert on a handle whose call
// was harvested.
func (pc *PoolPending) Abandon() {
	if !pc.live() {
		return
	}
	delete(pc.pl.results, pc.id)
	pc.rb.id = noCall
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
	if err := pl.Add(server, serverKey); err != nil {
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
