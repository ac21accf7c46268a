package serve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// literalRunClient is RunClient as it was before its harvest poll became a
// client of IdlePoll — one poll and one sleep per sweep, every pollTick while
// requests are in flight — kept verbatim as the reference the converted loop
// must reproduce.
func literalRunClient(p *sim.Proc, w Workload, cfg ClientConfig, slo *SLO) {
	drain := cfg.Drain
	if drain <= 0 {
		drain = 2 * cfg.Deadline
	}
	var inflight []inflightReq
	var seq uint64
	next := sim.Time(0).Add(cfg.Arr.Gap(0))

	classify := func(r *inflightReq, now sim.Time, err error) {
		if r.fl != nil {
			// Close the root: whatever end-to-end time is not yet covered by
			// a fan-in mark is client-side waiting, and the SLO class rides a
			// note so the tail-attribution pass can split by outcome.
			var cls string
			switch {
			case err == nil && (r.deadline == 0 || now <= r.deadline):
				cls = obs.ClassGood
			case err == nil:
				cls = obs.ClassMissed
			case errors.Is(err, rpc.ErrOverload):
				cls = obs.ClassShed
			case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, rpc.ErrTimeout):
				cls = obs.ClassMissed
			default:
				cls = "failed"
			}
			r.fl.Note("class:"+cls, now)
			r.fl.Mark(obs.StageRPCWait, now)
			r.fl.Finish(now)
		}
		if !r.measured {
			return
		}
		switch {
		case err == nil && (r.deadline == 0 || now <= r.deadline):
			slo.RecordGood(now.Sub(r.issued))
		case err == nil:
			slo.Missed++ // answered, but too late to serve
		case errors.Is(err, rpc.ErrOverload):
			slo.Shed++
		case errors.Is(err, rpc.ErrDeadlineExceeded) || errors.Is(err, rpc.ErrTimeout):
			slo.Missed++
		default:
			slo.Failed++
		}
	}

	harvest := func(now sim.Time) {
		w.Poll(p)
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

	for {
		now := p.Now()
		harvest(now)
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
		sleep := next.Sub(now)
		if next >= cfg.Stop {
			sleep = cfg.Stop.Add(drain).Sub(now)
		}
		if len(inflight) > 0 && sleep > pollTick {
			sleep = pollTick
		}
		if sleep <= 0 {
			sleep = 1
		}
		p.Sleep(sleep)
	}
}

// loggedWorkload records when each request left the client's in-flight
// list — harvested or abandoned — which the SLO alone does not show.
type loggedWorkload struct {
	*KVWorkload
	e    *sim.Engine
	left *[]sim.Time
}

type loggedReq struct {
	Req
	w *loggedWorkload
}

func (w *loggedWorkload) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error) {
	r, err := w.KVWorkload.Issue(p, seq, ctx)
	if err != nil {
		return nil, err
	}
	return loggedReq{r, w}, nil
}

func (r loggedReq) TryWait(p *sim.Proc) (bool, error) {
	done, err := r.Req.TryWait(p)
	if done {
		*r.w.left = append(*r.w.left, p.Now())
	}
	return done, err
}

func (r loggedReq) Abandon() {
	*r.w.left = append(*r.w.left, r.w.e.Now())
	r.Req.Abandon()
}

// equivRun is what one tiny KV serving run leaves behind, per client.
type equivRun struct {
	SLOs        []SLO // counters; Lat compared through Lats
	Lats        [][]sim.Duration
	Left        [][]sim.Time
	Outstanding [][3]int
	Served      []int64
	fired       uint64
}

// runEquiv drives a small sharded KV store — 2 servers, 3 open-loop clients
// offering more than it can serve, so requests are admitted, shed, missed and
// abandoned — through run, optionally under a seeded random fault plan.
//
// elephants makes every fourth op a 60 KB put and lifts the in-flight cap, so
// Issue runs out of credits and polls inside itself — completing requests
// the loop has not harvested yet.
func runEquiv(t *testing.T, seed int64, faults, elephants bool, run func(*sim.Proc, Workload, ClientConfig, *SLO)) equivRun {
	t.Helper()
	const (
		nServers = 2
		nClients = 3
		lambda   = 4500.0
		warmup   = 5 * sim.Millisecond
		window   = 40 * sim.Millisecond
	)
	c := hostos.NewCluster(seed, 10, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	if faults {
		fault.RandomPlan(DeriveRNG(seed, 0xFA177), fault.ChaosConfig{
			Events: 10, Horizon: warmup + window, MaxOutage: 4 * sim.Millisecond,
			Nodes: 10, Leaves: c.ShardNet(0).Leaves(), Spines: c.ShardNet(0).TotalSpines(),
			NoCrashBelow: nServers,
		}).Apply(c)
	}
	ring := NewRing(nServers, 16)
	stop := false
	servers := make([]*KVServer, nServers)
	addrs := make([]Addr, nServers)
	for i := range servers {
		kv, err := NewKVServer(c.Nodes[i], core100+coreKey(i), KVServerConfig{
			Service: 200 * sim.Microsecond, Opts: rpc.Options{Queue: 8, IdemCap: 4096}})
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = kv, kv.Addr()
		kv.node.Spawn("kv-serve", func(p *sim.Proc) { kv.Serve(p, func() bool { return stop }) })
	}
	out := equivRun{SLOs: make([]SLO, nClients), Lats: make([][]sim.Duration, nClients),
		Left: make([][]sim.Time, nClients), Outstanding: make([][3]int, nClients)}
	workloads := make([]*KVWorkload, nClients)
	slos := make([]*SLO, nClients)
	for i := range workloads {
		ci := i
		slos[ci] = NewSLO()
		node := c.Nodes[nServers+2*ci] // spread over both leaves
		kcfg := KVWorkloadConfig{
			Ring: ring, Keys: NewHotKeys(1000, 4, 0.3, DeriveRNG(seed, uint64(2*ci+1))),
			PutFrac: 0.3, Replicas: 2, ValSize: 64, IdemPuts: true, ClientID: uint64(ci),
		}
		maxOut := 12
		if elephants {
			kcfg.BigEvery, kcfg.BigSize, maxOut = 4, 60000, 48
		}
		w, err := NewKVWorkload(node, addrs, kcfg, rpc.Options{}, DeriveRNG(seed, uint64(2*ci+2)))
		if err != nil {
			t.Fatal(err)
		}
		workloads[ci] = w
		node.Spawn("kv-client", func(p *sim.Proc) {
			run(p, &loggedWorkload{w, node.E, &out.Left[ci]}, ClientConfig{
				Arr:         NewPoisson(lambda, DeriveRNG(seed, uint64(100+ci))),
				Deadline:    3 * sim.Millisecond,
				MaxOut:      maxOut,
				Stop:        sim.Time(warmup + window),
				MeasureFrom: sim.Time(warmup),
				MeasureTo:   sim.Time(warmup + window),
			}, slos[ci])
		})
	}
	c.RunFor(warmup + window + 20*sim.Millisecond)
	stop = true
	c.RunFor(10 * sim.Millisecond)
	for i, w := range workloads {
		out.SLOs[i] = *slos[i]
		out.SLOs[i].Lat = nil
		out.Lats[i] = slos[i].Lat.Samples()
		r, ri, d := w.Pool().Outstanding()
		out.Outstanding[i] = [3]int{r, ri, d}
	}
	for _, kv := range servers {
		out.Served = append(out.Served, kv.Gets+kv.Puts)
	}
	out.fired = c.EngineStats().Fired
	return out
}

// TestRunClientMatchesLiteralLoop: over seeds 1–20, plain, under fault churn
// and with credit-starved elephant puts, the converted RunClient classifies every request the same way, at
// the same virtual time, as the sweep-every-pollTick loop it replaced —
// identical SLO counters, identical latency lists in harvest order,
// identical leftover pool state, identical work at the servers — while
// firing fewer engine events.
func TestRunClientMatchesLiteralLoop(t *testing.T) {
	var classes SLO
	seeds := int64(20)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for mode := 0; mode < 3; mode++ {
			faults, elephants := mode == 1, mode == 2
			lit := runEquiv(t, seed, faults, elephants, literalRunClient)
			got := runEquiv(t, seed, faults, elephants, RunClient)
			lf, gf := lit.fired, got.fired
			lit.fired, got.fired = 0, 0
			if !reflect.DeepEqual(lit, got) {
				t.Fatalf("seed %d faults %v elephants %v:\nliteral %s\nelided  %s", seed, faults, elephants, fmt.Sprint(lit), fmt.Sprint(got))
			}
			if gf >= lf {
				t.Fatalf("seed %d faults %v elephants %v: converted loop fired %d events, literal %d", seed, faults, elephants, gf, lf)
			}
			for i := range lit.SLOs {
				s := lit.SLOs[i]
				s.Lat = NewSLO().Lat
				classes.Merge(&s)
			}
		}
	}
	t.Logf("classes covered: %+v", classes)
	if classes.Good == 0 || classes.Missed == 0 || classes.Shed == 0 || classes.Capped == 0 {
		t.Fatalf("the sweep never produced one of the SLO classes: %+v", classes)
	}
}

// issueCompletes is a transport reduced to the one behaviour that matters
// here: nothing ever arrives at a poll, and Issue — which in the real
// transport polls while it waits for credits — completes the request issued
// before it. The sweep after an Issue must therefore look, however quiet the
// endpoint is.
type issueCompletes struct {
	reqs      []*issueCompletesReq
	harvested []sim.Time
}

type issueCompletesReq struct {
	w    *issueCompletes
	done bool
}

const fakePollCost = 300 * sim.Nanosecond

func (w *issueCompletes) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error) {
	if n := len(w.reqs); n > 0 {
		w.reqs[n-1].done = true
	}
	r := &issueCompletesReq{w: w}
	w.reqs = append(w.reqs, r)
	return r, nil
}

func (w *issueCompletes) Poll(p *sim.Proc) { p.Sleep(fakePollCost) }

func (w *issueCompletes) IdlePoll(p *sim.Proc, tick sim.Duration, until sim.Time) (int, sim.Time) {
	for {
		start := p.Now()
		w.Poll(p)
		if start >= until {
			return 0, start
		}
		p.Sleep(tick)
	}
}

func (r *issueCompletesReq) TryWait(p *sim.Proc) (bool, error) {
	if r.done {
		r.w.harvested = append(r.w.harvested, p.Now())
	}
	return r.done, nil
}

func (r *issueCompletesReq) Abandon() {}

func TestRunClientSeesCompletionsMadeByIssue(t *testing.T) {
	run := func(fn func(*sim.Proc, Workload, ClientConfig, *SLO)) []sim.Time {
		e := sim.NewEngine(1)
		defer e.Shutdown()
		w := &issueCompletes{}
		e.Spawn("client", func(p *sim.Proc) {
			fn(p, w, ClientConfig{
				Arr: NewPoisson(2000, DeriveRNG(3, 1)), Deadline: 5 * sim.Millisecond, MaxOut: 8,
				Stop: sim.Time(20 * sim.Millisecond), MeasureTo: sim.Time(20 * sim.Millisecond),
			}, NewSLO())
		})
		e.Run()
		return w.harvested
	}
	lit, got := run(literalRunClient), run(RunClient)
	if len(lit) < 10 || !reflect.DeepEqual(lit, got) {
		t.Fatalf("requests completed inside Issue were harvested at\nliteral %v\nelided  %v", lit, got)
	}
}
