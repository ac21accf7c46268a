package bench

import (
	"fmt"
	"io"

	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// shardSoak soaks the sharded engine: a 64-host cluster partitioned into
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
// The report is deterministic for a fixed (seed, shards): TestSoaks compares
// it with a committed transcript, and CI runs that under -race to catch any
// cross-shard sharing the comparison cannot see.
func shardSoak(w io.Writer, p SoakParams) error {
	const nodes = 64
	const pairs = 32
	quota := int(p.Duration * 1000) // requests per client, scaled like a duration
	if quota <= 0 {
		quota = 200
	}
	shards := p.Shards
	if shards == 0 {
		shards = 2
	}
	cl := hostos.NewShardedCluster(p.Seed, nodes, shards, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	fmt.Fprintf(w, "shard soak: nodes=%d shards=%d pairs=%d quota=%d seed=%d\n",
		nodes, cl.Shards(), pairs, quota, p.Seed)

	// Node-scoped fault churn: two NI reboots and a repaired access-link
	// outage, all on hosts of the first few pairs. Apply dispatches each to
	// the owning shard's engine.
	plan, err := fault.Parse("reboot:node0@5ms+1ms,reboot:node33@9ms+1ms,hostlink:2@14ms+2ms")
	if err != nil {
		return fmt.Errorf("shardsoak plan: %w", err)
	}
	plan.Apply(cl)
	faulted := map[int]bool{0: true, 33: true, 2: true}

	// Even pairs span the cluster (cross-shard for shards > 1); odd pairs
	// stay between neighbor hosts (same leaf, same shard).
	states, err := spawnEchoPairs(cl, pairs, quota, func(i int) (srv, cli int) {
		if i%2 == 1 {
			return i, (i + 1) % pairs
		}
		return i, i + pairs
	})
	if err != nil {
		return err
	}
	cl.RunUntilDone(5*sim.Millisecond, sim.Time(0).Add(60*sim.Second), echoPairsDone(states))
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
			fmt.Fprintf(w, "FAIL pair %d (srv=%d cli=%d faulted=%v): served=%d replies=%d done=%v\n",
				i, ps.srv, ps.cli, hit, ps.served, ps.got, ps.done)
		}
	}
	fmt.Fprintf(w, "pairs: clean=%d faulted=%d incomplete=%d\n", cleanPairs, faultedPairs, incomplete)

	if err := poolLocality(cl); err != nil {
		violations++
		fmt.Fprintf(w, "FAIL %v\n", err)
	}
	fmt.Fprintf(w, "pool locality: %d NIs + %d replicas clean\n", len(cl.Nodes), cl.Shards())

	sent, delivered, dropped, corrupted := cl.NetTotals()
	fmt.Fprintf(w, "net: sent=%d delivered=%d dropped=%d corrupted=%d\n",
		sent, delivered, dropped, corrupted)
	if cl.Shards() > 1 {
		barriers, exchanged := cl.Coord.ExchangeStats()
		fmt.Fprintf(w, "exchange: barriers=%d cross-shard=%d\n", barriers, exchanged)
	}
	if violations > 0 {
		return fmt.Errorf("shard soak: %d invariant violations", violations)
	}
	fmt.Fprintf(w, "shard soak passed\n")
	return nil
}
