package main

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// runShardSoak soaks the sharded engine: a 64-host cluster partitioned into
// -shards engine shards runs a mix of shard-local and cross-shard
// request/reply streams while node-scoped faults (NI reboots, access-link
// outages with repair) churn underneath. At the end it checks:
//
//   - every pair whose hosts were never faulted completed its full quota
//     exactly once (served == replies == quota),
//   - faulted pairs recovered through retransmission and completed too
//     (reboots and repaired link outages are recoverable outages),
//   - every NI's and every shard replica's free lists are shard-local
//     (no pooled object crossed an engine boundary),
//   - the per-shard event streams drained (the cluster quiesced).
//
// Stdout is deterministic for a fixed (seed, shards): CI runs it twice and
// diffs, and runs it under -race to catch any cross-shard sharing the
// determinism diff cannot see.
func runShardSoak() {
	const nodes = 64
	const pairs = 32
	quota := int(*duration * 1000) // requests per client, scaled like a duration
	if quota <= 0 {
		quota = 200
	}
	cfg := hostos.DefaultClusterConfig()
	cl := hostos.NewShardedCluster(*seed, nodes, *shards, cfg)
	defer cl.Shutdown()
	fmt.Printf("shard soak: nodes=%d shards=%d pairs=%d quota=%d seed=%d\n",
		nodes, cl.Shards(), pairs, quota, *seed)

	// Node-scoped fault churn: two NI reboots and a repaired access-link
	// outage, all on hosts of the first few pairs. Apply dispatches each to
	// the owning shard's engine.
	plan, err := fault.Parse("reboot:node0@5ms+1ms,reboot:node33@9ms+1ms,hostlink:2@14ms+2ms")
	if err != nil {
		fatal("shardsoak plan: %v", err)
	}
	plan.Apply(cl)
	faulted := map[int]bool{0: true, 33: true, 2: true}

	type pairState struct {
		srv, cli int
		served   int64
		got      int64
		done     bool
	}
	states := make([]*pairState, pairs)
	for i := 0; i < pairs; i++ {
		// Even pairs span the cluster (cross-shard for shards > 1); odd
		// pairs stay between neighbor hosts (same leaf, same shard).
		srv := i
		cli := i + pairs
		if i%2 == 1 {
			cli = (i + 1) % pairs
		}
		ps := &pairState{srv: srv, cli: cli}
		states[i] = ps

		sb := core.Attach(cl.Nodes[srv])
		sep, err := sb.NewEndpoint(core.Key(100+i), 8)
		if err != nil {
			fatal("shardsoak server ep: %v", err)
		}
		cb := core.Attach(cl.Nodes[cli])
		cep, err := cb.NewEndpoint(core.Key(200+i), 8)
		if err != nil {
			fatal("shardsoak client ep: %v", err)
		}
		sep.Map(0, cep.Name(), core.Key(200+i))
		cep.Map(0, sep.Name(), core.Key(100+i))

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			ps.served++
			tok.Reply(p, hRep, args)
		})
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, _ [4]uint64, _ []byte) {
			ps.got++
		})
		cl.Nodes[srv].Spawn(fmt.Sprintf("ss-srv%d", i), func(p *sim.Proc) {
			for {
				if sep.Poll(p) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		})
		cl.Nodes[cli].Spawn(fmt.Sprintf("ss-cli%d", i), func(p *sim.Proc) {
			for s := 0; s < quota; s++ {
				if cep.Request(p, 0, hReq, [4]uint64{uint64(i), uint64(s)}) != nil {
					return
				}
				cep.Poll(p)
			}
			for ps.got < int64(quota) {
				cep.Poll(p)
				p.Sleep(sim.Microsecond)
			}
			ps.done = true
		})
	}

	deadline := sim.Time(0).Add(60 * sim.Second)
	for cl.Now() < deadline {
		cl.RunFor(5 * sim.Millisecond)
		all := true
		for _, ps := range states {
			all = all && ps.done
		}
		if all {
			break
		}
	}
	// Settle: let retransmit timers and reboot recoveries drain.
	cl.RunFor(50 * sim.Millisecond)

	violations := 0
	var cleanPairs, faultedPairs, incomplete int
	for i, ps := range states {
		hit := faulted[ps.srv] || faulted[ps.cli]
		if hit {
			faultedPairs++
		} else {
			cleanPairs++
		}
		ok := ps.done && ps.got == int64(quota) && ps.served == int64(quota)
		if !ok {
			incomplete++
			violations++
			fmt.Printf("FAIL pair %d (srv=%d cli=%d faulted=%v): served=%d replies=%d done=%v\n",
				i, ps.srv, ps.cli, hit, ps.served, ps.got, ps.done)
		}
	}
	fmt.Printf("pairs: clean=%d faulted=%d incomplete=%d\n", cleanPairs, faultedPairs, incomplete)

	for _, n := range cl.Nodes {
		if err := n.NIC.VerifyPoolLocality(); err != nil {
			violations++
			fmt.Printf("FAIL %v\n", err)
		}
	}
	for s := 0; s < cl.Shards(); s++ {
		if err := cl.ShardNet(s).VerifyPoolLocality(); err != nil {
			violations++
			fmt.Printf("FAIL %v\n", err)
		}
	}
	fmt.Printf("pool locality: %d NIs + %d replicas clean\n", len(cl.Nodes), cl.Shards())

	sent, delivered, dropped, corrupted := cl.NetTotals()
	fmt.Printf("net: sent=%d delivered=%d dropped=%d corrupted=%d\n",
		sent, delivered, dropped, corrupted)
	if cl.Shards() > 1 {
		barriers, exchanged := cl.Coord.ExchangeStats()
		fmt.Printf("exchange: barriers=%d cross-shard=%d\n", barriers, exchanged)
	}
	if violations > 0 {
		fatal("shard soak: %d invariant violations", violations)
	}
	fmt.Printf("shard soak passed\n")
}
