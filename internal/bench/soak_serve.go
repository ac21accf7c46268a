package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/serve"
	"virtnet/internal/sim"
)

// serveSoak is the serving soak (-serve): open-loop KV clients drive a
// small protected serving tier at ~1.3× capacity through the reliability
// layer while a seeded random fault plan churns links and crashes client
// nodes. With -shards N the same soak runs on a sharded cluster, with the
// flight recorder tracing request trees across shard boundaries. Puts
// carry idempotency keys and fan out to 2 replicas. At the end it checks:
//
//   - no hang: every surviving client finishes its open-loop schedule and
//     drain within a bounded settle window,
//   - exactly-once effects: no idempotency key executed more than once on
//     any replica server, across retries and duplicate deliveries,
//   - zero leaks: every surviving client's pool and every server's
//     reliability bookkeeping drains to zero,
//   - SLO sanity: load was offered and goodput is nonzero despite the
//     deliberate overload.
//
// With -dash the serve SLO panel (offered/good/shed plus live latency
// quantiles) and a compact tail-attribution panel (per SLO class: count,
// dominant stage) print every 100 ms of simulated time; the full
// attribution report prints at the end either way.
func serveSoak(w io.Writer, p SoakParams) error {
	nodes, seed := p.Nodes, p.Seed
	const (
		nServers   = 4
		deadline   = 20 * sim.Millisecond
		service    = 200 * sim.Microsecond
		putFrac    = 0.3
		replicas   = 2
		staleAfter = 500 * sim.Millisecond
	)
	if nodes < nServers+2 {
		return fmt.Errorf("serve soak needs at least %d nodes", nServers+2)
	}
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = p.Drop
	cl := hostos.NewShardedCluster(seed, nodes, max(p.Shards, 1), cfg) // one shard unless -shards says otherwise
	defer cl.Shutdown()
	var fail failure
	o := cl.EnableObs(obs.Options{SampleEvery: 8, RingCap: 1 << 12})

	// One reliab metrics set per shard: every actor on a shard shares its
	// shard's set (procs of one shard never run concurrently), and shard 0's
	// feeds the dashboard's reliability section. Sums happen at the end.
	ms := make([]*reliab.Metrics, cl.Shards())
	for s := range ms {
		ms[s] = reliab.NewMetrics()
	}
	ms[0].Register(o.R)
	mfor := func(node *hostos.Node) *reliab.Metrics {
		return ms[cl.ShardOfNode(int(node.ID))]
	}

	dur := sim.Duration(p.Duration * float64(sim.Second))
	stopAt := sim.Time(dur)
	// The serving tier holds the invariant state, so the plan spares it.
	plan := applyChaosPlan(cl, rand.New(rand.NewSource(seed+0xF00)), 16, dur, 30*sim.Millisecond, nServers)
	fmt.Fprintf(w, "serve soak plan: %s\n", plan)
	crashed := plan.CrashTargets()

	stop := false
	ring := serve.NewRing(nServers, 32)
	servers := make([]*serve.KVServer, nServers)
	rpcServers := make([]*rpc.Server, nServers)
	addrs := make([]serve.Addr, nServers)
	for i := 0; i < nServers; i++ {
		kv, err := serve.NewKVServer(cl.Nodes[i], core.Key(5000+i), serve.KVServerConfig{
			Service: service, TrackEffects: true,
			Opts: rpc.Options{Queue: 32, IdemCap: 1 << 16, Metrics: mfor(cl.Nodes[i]), StaleAfter: staleAfter},
		})
		if err != nil {
			return fmt.Errorf("kv server: %w", err)
		}
		servers[i], rpcServers[i] = kv, kv.S
		addrs[i] = kv.Addr()
		cl.Nodes[i].Spawn(fmt.Sprintf("kv-serve%d", i), func(p *sim.Proc) {
			kv.Serve(p, func() bool { return stop })
		})
	}

	// Per-client SLOs (procs on different shards run concurrently, so a
	// shared accumulator would race); the dashboard's serve panel reads a
	// merged view at snapshot time, which only happens while the engines
	// are parked between RunFor rounds.
	workPerOp := (1 - putFrac) + putFrac*replicas
	capacity := float64(nServers) * float64(sim.Second) / float64(service) / workPerOp
	nClients := nodes - nServers
	perClient := 1.3 * capacity / float64(nClients)
	slos := make([]*serve.SLO, nClients)
	for ci := range slos {
		slos[ci] = serve.NewSLO()
	}
	merged := func() *serve.SLO {
		t := serve.NewSLO()
		for _, s := range slos {
			t.Merge(s)
		}
		return t
	}
	serve.RegisterMerged(o.R, merged)

	clientDone := make([]bool, nClients)
	pools := make([]*rpc.Pool, nClients)
	for ci := 0; ci < nClients; ci++ {
		node := cl.Nodes[nServers+ci]
		node.Spawn(fmt.Sprintf("serve-client%d", ci), func(p *sim.Proc) {
			wl, err := serve.NewKVWorkload(node, addrs, serve.KVWorkloadConfig{
				Ring:     ring,
				Keys:     serve.NewHotKeys(10000, 4, 0.3, serve.DeriveRNG(seed, uint64(0x20000+ci))),
				PutFrac:  putFrac,
				Replicas: replicas,
				ValSize:  64,
				IdemPuts: true,
				ClientID: uint64(ci + 1),
			}, rpc.Options{Metrics: mfor(node)}, serve.DeriveRNG(seed, uint64(0x30000+ci)))
			if err != nil {
				fail.failf("workload %d: %w", ci, err)
				return
			}
			pools[ci] = wl.Pool()
			ccfg := serve.ClientConfig{
				Arr:       serve.NewPoisson(perClient, serve.DeriveRNG(seed, uint64(0x10000+ci))),
				Deadline:  deadline,
				MaxOut:    64,
				Stop:      stopAt,
				MeasureTo: stopAt,
			}
			if node.Obs != nil {
				ccfg.Tracer = node.Obs.T
				ccfg.TraceNode = int(node.ID)
			}
			serve.RunClient(p, wl, ccfg, slos[ci])
			// Poll the pool until its calls drain (late results and returns
			// from fault outages can still be in flight).
			until := p.Now().Add(2 * staleAfter)
			for p.Now() < until {
				wl.Poll(p)
				if r, ri, d := wl.Pool().Outstanding(); r+ri+d == 0 {
					break
				}
				p.Sleep(100 * sim.Microsecond)
			}
			clientDone[ci] = true
		})
	}

	// No-hang invariant: surviving clients settle within a bounded window.
	lastDash := cl.Now()
	cl.RunUntilDone(10*sim.Millisecond, stopAt.Add(10*sim.Second), func() bool {
		if p.Dash && cl.Now().Sub(lastDash) >= 100*sim.Millisecond {
			fmt.Fprint(w, o.R.DashboardSection("serve"))
			fmt.Fprint(w, attrPanel(obs.Attribute(cl.MergedFlights(), 1)))
			lastDash = cl.Now()
		}
		return fail.err != nil || cl.Now() >= stopAt.Add(2*deadline) && hungClient(clientDone, nServers, crashed) < 0
	})
	if fail.err != nil {
		return fail.err
	}
	if ci := hungClient(clientDone, nServers, crashed); ci >= 0 {
		return fmt.Errorf("INVARIANT VIOLATION: serve client %d hung (no-hang)", ci)
	}
	// Run past the stale-sweep horizon so servers reclaim partial calls
	// from crashed clients, then keep serving until every server drains
	// (bounded).
	cl.RunFor(2 * staleAfter)
	cl.RunUntilDone(2*staleAfter, cl.Now().Add(4*staleAfter), func() bool { return serversDrained(rpcServers) == nil })
	stop = true
	cl.RunFor(10 * sim.Millisecond)

	lost := 0
	for _, done := range clientDone {
		if !done {
			lost++
		}
	}
	slo := merged()
	fmt.Fprintf(w, "serve traffic: %s\n", slo.Line(dur))
	fmt.Fprintf(w, "clients: %d total, %d lost to crashes; capacity %.0f req/s offered at 1.3x across %d shards\n",
		nClients, lost, capacity, cl.Shards())

	// SLO sanity: the open loop must have offered load, and the protected
	// tier must have served a real fraction of it despite the overload.
	if slo.Offered == 0 || slo.Good == 0 {
		return fmt.Errorf("INVARIANT VIOLATION: no load served (offered=%d good=%d)", slo.Offered, slo.Good)
	}

	// Exactly-once effects: across retries, duplicate deliveries, and fault
	// churn, no idempotency key may reach a put handler twice.
	var applied int64
	keys, dups := 0, 0
	for _, kv := range servers {
		applied += kv.Applied
		k, d := tally(kv.Ledger)
		keys, dups = keys+k, dups+d
	}
	if dups > 0 {
		return fmt.Errorf("INVARIANT VIOLATION: %d duplicate executions across %d idempotency keys", dups, keys)
	}
	var absorbed int64
	for _, m := range ms {
		absorbed += m.Get("idem_hits") + m.Get("idem_dup")
	}
	fmt.Fprintf(w, "exactly-once holds: %d puts applied across %d replicas, 0 duplicate executions (%d duplicates absorbed by the idem cache)\n",
		applied, nServers, absorbed)

	// Zero leaks: surviving clients' pools and every server drain to zero.
	if err := errors.Join(serversDrained(rpcServers), clientsDrained(pools, clientDone)); err != nil {
		return err
	}
	fmt.Fprintln(w, "zero leaks: all pool slots, re-issue records, and admission queues drained")

	// Tail attribution over the soak's sampled request trees — the merged
	// cross-shard timeline folded per SLO class.
	cl.SweepOpenFlights("run-end")
	flights := cl.MergedFlights()
	fmt.Fprintf(w, "tail attribution over %d merged flights:\n", len(flights))
	fmt.Fprint(w, obs.Attribute(flights, 2).Render())

	fmt.Fprint(w, o.R.DashboardSection("serve"))
	fmt.Fprintf(w, "final sim time %v\n", sim.Duration(cl.Now()))
	return nil
}

// attrPanel renders the compact one-line tail-attribution panel the -dash
// loop prints alongside the SLO section: per SLO class, how many sampled
// requests have finished and which stage dominates their cost.
func attrPanel(a *obs.Attribution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[serve.tailat] attributable=%d", a.Roots)
	for i := range a.Classes {
		ca := &a.Classes[i]
		if ca.N == 0 {
			continue
		}
		st, frac := ca.DominantStage()
		fmt.Fprintf(&b, "  %s:%d dom=%s %.0f%%", ca.Class, ca.N, st, 100*frac)
	}
	b.WriteString("\n")
	return b.String()
}
