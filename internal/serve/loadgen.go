package serve

import (
	"errors"

	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// Req is one in-flight serving request, harvested without blocking so a
// single client proc drives many concurrent requests.
type Req interface {
	// TryWait reports whether the request finished (successfully or not).
	TryWait(p *sim.Proc) (done bool, err error)
	// Abandon drops the request; a late response is discarded as stale.
	Abandon()
}

// Workload issues requests against one serving application. Implementations
// own their transport (an rpc.Pool) and their key/op randomness (derived
// streams, never engine PRNGs).
type Workload interface {
	// Issue starts request seq with the given reliability context.
	Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error)
	// Poll services the workload's transport.
	Poll(p *sim.Proc)
}

// IdlePoller is implemented by workloads whose transport can stand in for
// RunClient's harvest polls while nothing arrives (rpc.Pool.IdlePoll): it
// polls every tick until a poll dispatches something or starts at or after
// until, and returns that poll's start time. RunClient polls a workload
// without it once per sweep.
type IdlePoller interface {
	IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time)
}

// pooled is a workload's transport when that is one rpc.Pool: the KV,
// parameter-server and gateway workloads embed it.
type pooled struct{ pool *rpc.Pool }

// newPooled opens node's rpc pool and adds every server as a target.
func newPooled(node *hostos.Node, servers []Addr, opts rpc.Options) (pooled, error) {
	pl, err := rpc.NewPool(node, len(servers), opts)
	if err != nil {
		return pooled{}, err
	}
	for _, sv := range servers {
		if err := pl.Add(sv.Name, sv.Key); err != nil {
			return pooled{}, err
		}
	}
	return pooled{pl}, nil
}

// Poll and IdlePoll service the pool (Workload, IdlePoller); Pool exposes it
// for invariant checks.
func (w pooled) Poll(p *sim.Proc) { w.pool.Poll(p) }
func (w pooled) Pool() *rpc.Pool  { return w.pool }
func (w pooled) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	return w.pool.IdlePoll(p, tick, until)
}

// ClientConfig shapes one open-loop client.
type ClientConfig struct {
	Arr      Arrival
	Deadline sim.Duration // per-request SLO deadline (0 = none)
	MaxOut   int          // inflight cap; arrivals beyond it are Capped
	Stop     sim.Time     // no arrivals at or after this time
	// Measurement window by issue time: only arrivals in [MeasureFrom,
	// MeasureTo) count toward the SLO. Warmup traffic outside the window
	// is still generated — the system must be in steady state when
	// measurement opens.
	MeasureFrom, MeasureTo sim.Time
	// Drain bounds how long after Stop the client keeps harvesting
	// in-flight requests before abandoning them (default 2× Deadline).
	Drain sim.Duration
	// Tracer samples request-level trace trees: each measured arrival makes
	// the tracer's 1-in-N sampling decision, and a sampled arrival becomes a
	// KindReq root flight whose trace id rides the request's Ctx so every
	// rpc fragment and server op beneath it joins the tree.
	// nil leaves request tracing off.
	Tracer *obs.Tracer
	// TraceNode is the node id recorded on sampled root flights.
	TraceNode int
}

// pollTick paces harvest sweeps while requests are in flight.
const pollTick = 20 * sim.Microsecond

// fanReq is implemented by fan-out requests that can mark first-response /
// last-response structure on the root flight (fan-in attribution).
type fanReq interface{ attach(fl *obs.Flight) }

type inflightReq struct {
	req      Req
	issued   sim.Time
	deadline sim.Time
	measured bool
	fl       *obs.Flight // sampled root flight (nil = untraced)
}

// RunClient runs one open-loop client to completion: arrivals fire on the
// schedule regardless of how the system is doing (the load does not slow
// down because the servers are struggling — that is the open loop), each
// request's end-to-end latency is measured at harvest, and everything is
// classified into the SLO. The arrival schedule is advanced from its own
// clock (each gap is drawn at the previous arrival's timestamp), so the
// offered sequence is a pure function of the arrival process's seed.
func RunClient(p *sim.Proc, w Workload, cfg ClientConfig, slo *SLO) {
	drain := cfg.Drain
	if drain <= 0 {
		drain = 2 * cfg.Deadline
	}
	var inflight []inflightReq
	var seq uint64
	next := sim.Time(0).Add(cfg.Arr.Gap(0))

	classify := func(r *inflightReq, now sim.Time, err error) {
		cls := "failed"
		switch {
		case err == nil && (r.deadline == 0 || now <= r.deadline):
			cls = obs.ClassGood
		case err == nil:
			cls = obs.ClassMissed // answered, but too late to serve
		case errors.Is(err, rpc.ErrOverload):
			cls = obs.ClassShed
		case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, rpc.ErrTimeout):
			cls = obs.ClassMissed
		}
		if r.fl != nil {
			// Close the root: whatever end-to-end time is not yet covered by
			// a fan-in mark is client-side waiting, and the SLO class rides a
			// note so the tail-attribution pass can split by outcome.
			r.fl.Note("class:"+cls, now)
			r.fl.Mark(obs.StageRPCWait, now)
			r.fl.Finish(now)
		}
		if !r.measured {
			return
		}
		switch cls {
		case obs.ClassGood:
			slo.RecordGood(now.Sub(r.issued))
		case obs.ClassMissed:
			slo.Missed++
		case obs.ClassShed:
			slo.Shed++
		default:
			slo.Failed++
		}
	}

	harvest := func(now sim.Time) {
		kept := inflight[:0]
		for i := range inflight {
			r := &inflight[i]
			done, err := r.req.TryWait(p)
			if !done && r.deadline != 0 && now > r.deadline {
				// Past deadline: the response no longer matters. Abandon so
				// client state can't accumulate behind a slow server.
				r.req.Abandon()
				done, err = true, rpc.ErrTimeout
			}
			if done {
				classify(r, now, err)
				continue
			}
			kept = append(kept, *r)
		}
		inflight = kept
	}

	// until is how far the sweep's poll may run on alone (0: one poll). The
	// sweeps it may stand in for are those that would leave this loop's state
	// as it is: nothing to harvest or expire, no arrival due, a whole
	// pollTick to sleep.
	idle, _ := w.(IdlePoller)
	var until sim.Time
	for {
		now := p.Now()
		if idle != nil {
			_, now = idle.IdlePoll(p, pollTick, until)
		} else {
			w.Poll(p)
		}
		harvest(now)
		issued := false
		// Fire every arrival that is due. The schedule advances by drawn
		// gaps even when the client is saturated — queueing happens in the
		// system or not at all, never silently in the generator.
		for next < cfg.Stop && next <= now {
			at := next
			next = next.Add(cfg.Arr.Gap(next))
			measured := at >= cfg.MeasureFrom && at < cfg.MeasureTo
			if measured {
				slo.Offered++
			}
			if cfg.MaxOut > 0 && len(inflight) >= cfg.MaxOut {
				if measured {
					slo.Capped++
				}
				continue
			}
			ctx := reliab.Ctx{}
			var deadline sim.Time
			if cfg.Deadline > 0 {
				deadline = at.Add(cfg.Deadline)
				ctx.Deadline = deadline
			}
			var root *obs.Flight
			if measured {
				root = cfg.Tracer.Sample(cfg.TraceNode, cfg.TraceNode, obs.KindReq, at)
			}
			if root != nil {
				ctx.Trace = root.TraceID
			}
			req, err := w.Issue(p, seq, ctx)
			issued = true
			seq++
			if err != nil {
				r := inflightReq{issued: at, deadline: deadline, measured: measured, fl: root}
				classify(&r, now, err)
				continue
			}
			if root != nil {
				// A fan-out request marks first-response/last-response on the
				// root so straggler time shows up as fan-in, not rpc-wait.
				if fr, ok := req.(fanReq); ok {
					fr.attach(root)
				}
			}
			if measured {
				slo.Issued++
			}
			inflight = append(inflight, inflightReq{req: req, issued: at, deadline: deadline, measured: measured, fl: root})
		}
		if next >= cfg.Stop && len(inflight) == 0 {
			return
		}
		if next >= cfg.Stop && now >= cfg.Stop.Add(drain) {
			// Drain window over: whatever is still in flight has failed.
			for i := range inflight {
				inflight[i].req.Abandon()
				classify(&inflight[i], now, rpc.ErrTimeout)
			}
			return
		}
		// Sleep to the next interesting instant: the next arrival, or a
		// poll tick if responses may land meanwhile.
		horizon := next
		if next >= cfg.Stop {
			horizon = cfg.Stop.Add(drain)
		}
		sleep := horizon.Sub(now)
		if len(inflight) > 0 && sleep > pollTick {
			sleep = pollTick
		}
		if sleep <= 0 {
			sleep = 1
		}
		until = 0
		// Issue may poll while it waits for credits, completing requests this
		// loop has yet to harvest: the next sweep must look.
		if len(inflight) > 0 && !issued {
			until = horizon.Add(-pollTick)
			for i := range inflight {
				if d := inflight[i].deadline; d != 0 && d < until {
					until = d
				}
			}
		}
		p.Sleep(sleep)
	}
}
