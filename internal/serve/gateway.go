package serve

import (
	"encoding/binary"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// Gateway/backend procedure numbers.
const (
	ProcInfer   = 1 // gateway-facing: one inference request
	ProcBackend = 1 // backend-facing: one model-shard evaluation
)

// The inference tier's fixed costs.
const (
	// BackendService is a backend's compute per evaluation.
	BackendService = sim.Millisecond
	// backendRespSize is the bytes of one evaluation's result.
	backendRespSize = 1024
	// gatewayService is gateway-side compute per request (merge/route
	// cost).
	gatewayService = 20 * sim.Microsecond
	// gatewayHedgeAfter is how long a branch may straggle before the
	// gateway launches a duplicate of it. Hedges spend a token bucket of
	// gatewayHedgeBurst tokens that regains one every gatewayHedgeRefill —
	// it keeps the extra load bounded when everything is slow, exactly the
	// retry-storm argument applied to tail-cutting.
	gatewayHedgeAfter  = 4 * sim.Millisecond
	gatewayHedgeBurst  = 64
	gatewayHedgeRefill = sim.Millisecond
)

// Backend is one model shard: an rpc.Server evaluating requests with a
// fixed compute cost.
type Backend struct {
	S    *rpc.Server
	node *hostos.Node
}

// NewBackend builds one inference backend on node.
func NewBackend(node *hostos.Node, key core.Key, opts rpc.Options) (*Backend, error) {
	s, err := rpc.NewServerOpts(node, key, opts)
	if err != nil {
		return nil, err
	}
	b := &Backend{S: s, node: node}
	s.Register(ProcBackend, b.eval)
	return b, nil
}

// Addr returns the backend's pool address.
func (b *Backend) Addr() Addr { return Addr{Name: b.S.Name(), Key: b.S.Key()} }

// Serve runs the backend's poll/execute loop until stop returns true.
func (b *Backend) Serve(p *sim.Proc, stop func() bool) { b.S.Serve(p, stop) }

func (b *Backend) eval(p *sim.Proc, args []byte) ([]byte, error) {
	b.node.Compute(p, BackendService)
	out := make([]byte, backendRespSize)
	for i := range out {
		out[i] = byte(i * 17)
	}
	return out, nil
}

// GatewayConfig shapes the fan-out tier.
type GatewayConfig struct {
	// FanOut is how many backends each request needs (an ensemble of
	// model shards; the response is complete when all have answered).
	FanOut int
	// Workers is the gateway's concurrency: procs draining the admission
	// queue. Each worker handles one request's full fan-in at a time.
	Workers int
	Opts    rpc.Options
}

// Gateway is the fan-out/fan-in tier: each inference request fans out to
// FanOut backends (rotating round-robin over the pool), inherits the
// caller's deadline on every branch, hedges straggling branches, and
// answers once every branch is in.
type Gateway struct {
	S    *rpc.Server
	node *hostos.Node
	cfg  GatewayConfig
	pool *rpc.Pool
	rr   int // round-robin fan-out start
	hb   *reliab.Budget
	tr   *obs.Tracer

	Hedges, HedgeWins int64
}

// NewGateway builds the gateway on node over the given backends. The
// gateway's rpc.Server should be configured with an admission queue
// (cfg.Opts.Queue) — Workers procs drain it.
func NewGateway(node *hostos.Node, key core.Key, backends []Addr, cfg GatewayConfig) (*Gateway, error) {
	s, err := rpc.NewServerOpts(node, key, cfg.Opts)
	if err != nil {
		return nil, err
	}
	pl, err := rpc.NewPool(node, len(backends), cfg.Opts)
	if err != nil {
		return nil, err
	}
	for _, b := range backends {
		if err := pl.Add(b.Name, b.Key); err != nil {
			return nil, err
		}
	}
	if cfg.FanOut < 1 {
		cfg.FanOut = 1
	}
	if cfg.FanOut > len(backends) {
		cfg.FanOut = len(backends)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	g := &Gateway{S: s, node: node, cfg: cfg, pool: pl,
		hb: reliab.NewBudget(gatewayHedgeBurst, gatewayHedgeRefill)}
	if node.Obs != nil {
		g.tr = node.Obs.T
	}
	s.RegisterCtx(ProcInfer, g.infer)
	return g, nil
}

// Addr returns the gateway's pool address.
func (g *Gateway) Addr() Addr { return Addr{Name: g.S.Name(), Key: g.S.Key()} }

// Start spawns the gateway's poll loop and worker procs on its node; they
// run until stop returns true.
func (g *Gateway) Start(stop func() bool) {
	g.node.Spawn("gw-serve", func(p *sim.Proc) { g.S.Serve(p, stop) })
	for w := 1; w < g.cfg.Workers; w++ {
		g.node.Spawn("gw-worker", func(p *sim.Proc) {
			for !stop() {
				if !g.S.Step(p) {
					p.Sleep(pollTick)
				}
			}
		})
	}
}

// branch tracks one fan-out leg and its optional hedge.
type branch struct {
	primary rpc.PoolPending
	hedge   rpc.PoolPending
	hedged  bool // hedge is in flight
	done    bool
}

// infer is the gateway handler: fan out, hedge stragglers, fan in. It runs
// inside a worker proc (via Step), so blocking sleeps are legal; the
// inherited ctx bounds every branch — when the caller's deadline passes,
// branches shed server-side and the fan-in aborts.
func (g *Gateway) infer(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error) {
	g.node.Compute(p, gatewayService)
	n := g.cfg.FanOut
	branches := make([]branch, n)
	start := g.rr
	g.rr = (g.rr + 1) % g.pool.Targets()
	for i := 0; i < n; i++ {
		pc, err := g.pool.GoCtx(p, (start+i)%g.pool.Targets(), ProcBackend, args, ctx)
		if err != nil {
			for j := 0; j < i; j++ {
				branches[j].primary.Abandon()
			}
			return nil, err
		}
		branches[i].primary = pc
	}
	issued := p.Now()
	remaining := n
	total := 0
	for remaining > 0 {
		now := p.Now()
		if ctx.Deadline != 0 && now >= ctx.Deadline {
			for i := range branches {
				if !branches[i].done {
					branches[i].primary.Abandon()
					if branches[i].hedged {
						branches[i].hedge.Abandon()
					}
				}
			}
			return nil, rpc.ErrDeadlineExceeded
		}
		progress := false
		for i := range branches {
			b := &branches[i]
			if b.done {
				continue
			}
			if out, done, err := b.primary.TryWait(p); done {
				if err == nil {
					b.done = true
					remaining--
					total += len(out)
					progress = true
					if b.hedged {
						b.hedge.Abandon()
						b.hedged = false
					}
					continue
				}
				// Primary failed: the hedge (if any) is the only hope.
				if !b.hedged {
					for j := range branches {
						if !branches[j].done && branches[j].hedged {
							branches[j].hedge.Abandon()
						}
					}
					return nil, err
				}
				b.primary, b.hedged = b.hedge, false
				continue
			}
			if b.hedged {
				if out, done, err := b.hedge.TryWait(p); done {
					if err == nil {
						b.primary.Abandon()
						b.done = true
						remaining--
						total += len(out)
						progress = true
						g.HedgeWins++
						g.noteHedge(ctx.Trace, "hedge-win", p.Now())
						continue
					}
					b.hedged = false
				}
			} else if now.Sub(issued) >= gatewayHedgeAfter && g.hb.Allow(now) {
				// Straggling branch: duplicate it to the next backend over.
				alt := (start + i + n) % g.pool.Targets()
				if pc, err := g.pool.GoCtx(p, alt, ProcBackend, args, ctx); err == nil {
					b.hedge, b.hedged = pc, true
					g.Hedges++
					g.noteHedge(ctx.Trace, "hedge-launch", now)
				}
			}
		}
		if !progress {
			if g.pool.Poll(p) == 0 {
				p.Sleep(pollTick)
			}
		}
	}
	// The reply is a digest: total backend bytes, a stand-in for the
	// merged ensemble output.
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(total))
	return out[:], nil
}

// noteHedge records a zero-width marker op on a traced request: the hedge
// pair (launch and win) shows up in its trace tree without perturbing the
// stage accounting.
func (g *Gateway) noteHedge(trace uint64, what string, now sim.Time) {
	fl := g.tr.Child(trace, int(g.node.ID), int(g.node.ID), obs.KindOp, now)
	if fl == nil {
		return
	}
	fl.Note(what, now)
	fl.Finish(now)
}

// GatewayWorkload is the client side: one request per arrival to a
// gateway chosen round-robin from the client's pool.
type GatewayWorkload struct {
	pooled
	next int
}

// gatewayReqSize is the bytes of one inference request.
const gatewayReqSize = 128

// NewGatewayWorkload builds a client over the given gateways.
func NewGatewayWorkload(node *hostos.Node, gateways []Addr, opts rpc.Options) (*GatewayWorkload, error) {
	pl, err := newPooled(node, gateways, opts)
	if err != nil {
		return nil, err
	}
	return &GatewayWorkload{pooled: pl}, nil
}

// Issue sends one inference request to the next gateway.
func (w *GatewayWorkload) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error) {
	args := make([]byte, gatewayReqSize)
	binary.LittleEndian.PutUint64(args, seq)
	tgt := w.next
	w.next = (w.next + 1) % w.pool.Targets()
	pc, err := w.pool.GoCtx(p, tgt, ProcInfer, args, ctx)
	if err != nil {
		return nil, err
	}
	return poolReq{pc}, nil
}
