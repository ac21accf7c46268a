package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// chaosSoak is the chaos-soak harness (-chaos): a seeded random fault
// schedule (applyChaosPlan) torments the fabric while an
// idempotent-keyed RPC population hammers two protected server nodes
// through the reliability layer. At the end it checks the robustness
// invariants:
//
//   - no hang: the cluster quiesces within a bounded settle window,
//   - exactly-once effects: every idempotency key executed at most once,
//     and every client-observed success executed exactly once, across
//     crashes, retries, and duplicate deliveries,
//   - zero leaks: client and server reliability bookkeeping (call buffers,
//     admission queues) drains to zero on every surviving node,
//   - trace integrity: every finalized obs flight's per-stage durations
//     sum exactly to its end-to-end total.
//
// All randomness comes from the engine PRNG plus one dedicated plan
// generator seeded with -seed, so two runs at the same seed are
// byte-identical — TestSoaks compares them with a committed transcript.
func chaosSoak(w io.Writer, p SoakParams) error {
	nodes := p.Nodes
	const (
		nServers   = 2
		key        = 95
		deadline   = 20 * sim.Millisecond
		attempts   = 3
		staleAfter = 500 * sim.Millisecond
	)
	if nodes < nServers+2 {
		return fmt.Errorf("chaos soak needs at least %d nodes", nServers+2)
	}
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = p.Drop
	cl := hostos.NewCluster(p.Seed, nodes, cfg)
	defer cl.Shutdown()
	var fail failure
	o := cl.EnableObs(obs.Options{SampleEvery: 8, RingCap: 512})
	m := reliab.NewMetrics()
	m.Register(o.R)

	stopAt := sim.Time(sim.Duration(p.Duration * float64(sim.Second)))
	// The servers hold the invariant state, so the plan spares them.
	plan := applyChaosPlan(cl, rand.New(rand.NewSource(p.Seed)), 24, sim.Duration(stopAt), 50*sim.Millisecond, nServers)
	fmt.Fprintf(w, "chaos plan: %s\n", plan)
	crashed := plan.CrashTargets()

	stop := false

	// Protected servers: bounded admission, idempotency cache, shared
	// metrics. The effects map is the exactly-once ledger.
	effects := make(map[uint64]int)
	var servers []*rpc.Server
	for si := 0; si < nServers; si++ {
		s, err := rpc.NewServerOpts(cl.Nodes[si], key, rpc.Options{
			Queue: 64, IdemCap: 1 << 16, Metrics: m, StaleAfter: staleAfter,
		})
		if err != nil {
			return fmt.Errorf("server: %w", err)
		}
		s.RegisterCtx(1, func(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error) {
			effects[ctx.IdemKey]++
			return args, nil
		})
		cl.Nodes[si].Spawn("chaos-server", func(p *sim.Proc) { pollServe(p, s, &stop) })
		servers = append(servers, s)
	}

	// Client population on the crashable nodes: unique idempotency key per
	// logical operation, bounded deadline, up to `attempts` re-attempts
	// carrying the SAME key — the retry that must not double-execute.
	nClients := nodes - nServers
	clients := make([]*rpc.Client, nClients)
	clientDone := make([]bool, nClients)
	succKeys := make(map[uint64]bool)
	var calls, succ, failed int64
	for ci := 0; ci < nClients; ci++ {
		node := cl.Nodes[nServers+ci]
		node.Spawn(fmt.Sprintf("chaos-client%d", ci), func(p *sim.Proc) {
			c, err := rpc.NewClientOpts(node, servers[ci%nServers].Name(), key, rpc.Options{Metrics: m})
			if err != nil {
				fail.failf("client %d: %w", ci, err)
				return
			}
			clients[ci] = c
			rng := node.E.Rand()
			for i := 0; p.Now() < stopAt; i++ {
				opKey := uint64(nServers+ci)<<32 | uint64(i+1)
				calls++
				var ok bool
				for a := 0; a < attempts && p.Now() < stopAt.Add(deadline); a++ {
					_, err := c.CallCtx(p, 1, []byte{byte(i)},
						reliab.Ctx{Deadline: p.Now().Add(deadline), IdemKey: opKey})
					if err == nil {
						ok = true
						break
					}
					// Back off harder when the path (not just this call)
					// is bad; the breaker has already gone fast-fail.
					if errors.Is(err, rpc.ErrUnreachable) || errors.Is(err, rpc.ErrCircuitOpen) {
						p.Sleep(5 * sim.Millisecond)
					} else {
						p.Sleep(sim.Millisecond)
					}
				}
				if ok {
					succ++
					succKeys[opKey] = true
				} else {
					failed++
				}
				p.Sleep(sim.Duration(rng.Intn(400)+100) * sim.Microsecond)
			}
			// Drain: let stale results land and be acknowledged so both
			// sides retire their call bookkeeping.
			until := p.Now().Add(2 * staleAfter)
			for p.Now() < until {
				if c.Poll(p) == 0 {
					p.Sleep(100 * sim.Microsecond)
				}
			}
			clientDone[ci] = true
		})
	}

	// No-hang invariant: everything must settle within a bounded window
	// after the load stops (transport retry schedules + stale sweeps).
	cl.RunUntilDone(50*sim.Millisecond, stopAt.Add(10*sim.Second), func() bool {
		return fail.err != nil || cl.Now() >= stopAt.Add(2*staleAfter) && hungClient(clientDone, nServers, crashed) < 0
	})
	if fail.err != nil {
		return fail.err
	}
	if ci := hungClient(clientDone, nServers, crashed); ci >= 0 {
		return fmt.Errorf("INVARIANT VIOLATION: client %d hung (no-hang)", ci)
	}
	// Run past the sweep horizon so servers reclaim partial calls from
	// crashed clients, then stop the server loops.
	cl.RunFor(2 * staleAfter)
	stop = true
	cl.RunFor(10 * sim.Millisecond)

	lost := 0
	for _, done := range clientDone {
		if !done {
			lost++
		}
	}
	fmt.Fprintf(w, "chaos traffic: %d ops, %d ok, %d gave up, %d clients lost to crashes\n",
		calls, succ, failed, lost)

	// Exactly-once effects: no key may execute twice, and every key the
	// client observed as a success must have executed.
	total, dups := tally(effects)
	for k := range succKeys {
		if effects[k] == 0 {
			return fmt.Errorf("INVARIANT VIOLATION: op %d succeeded at the client but never executed", k)
		}
	}
	if dups > 0 {
		return fmt.Errorf("INVARIANT VIOLATION: %d duplicate executions across %d idempotency keys", dups, total)
	}
	fmt.Fprintf(w, "exactly-once holds: %d keys executed, 0 duplicates, %d client-confirmed\n",
		total, len(succKeys))

	// Zero leaks: every surviving party's reliability bookkeeping is empty.
	if err := errors.Join(serversDrained(servers), clientsDrained(clients, clientDone)); err != nil {
		return err
	}
	fmt.Fprintln(w, "zero leaks: all call buffers, re-issue records, and deferred retries drained")

	// Trace integrity: per-stage durations of every finalized flight sum
	// exactly to its total.
	flights := o.T.Flights()
	if err := stageSums(flights); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace integrity: %d sampled flights, stage sums exact\n", len(flights))

	fmt.Fprint(w, o.R.DashboardSection("reliab"))
	fmt.Fprintf(w, "final sim time %v\n", sim.Duration(cl.Now()))
	return nil
}
