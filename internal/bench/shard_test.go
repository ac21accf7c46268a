package bench

import (
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// TestShardedSimPerfCompletes runs the scaled workload on a small sharded
// cluster end to end: every request must complete with a reply through the
// cross-shard exchange.
func TestShardedSimPerfCompletes(t *testing.T) {
	msgs := 60
	if testing.Short() {
		msgs = 15
	}
	for _, shards := range []int{1, 2, 4} {
		res, err := runSimPerf(simPerfConfig{Hosts: 64, Msgs: msgs, Seed: 2, Shards: shards})
		if want := int64(32 * msgs); err != nil || res.Replied != want {
			t.Fatalf("shards=%d: replied=%d, want %d (err %v)", shards, res.Replied, want, err)
		}
	}
}

// TestShardPoolLocalityHammer is the cross-shard arena hammer: heavy
// bidirectional request/reply traffic between shard pairs — data one way,
// pooled control acks flowing back across the boundary — then every NI
// free list and every replica packet arena must hold only its own objects.
// Run under -race this doubles as the shared-state detector for the whole
// exchange path.
func TestShardPoolLocalityHammer(t *testing.T) {
	const nodes = 40
	const pairs = nodes / 2
	msgs := 400
	if testing.Short() {
		msgs = 80
	}
	cl := hostos.NewShardedCluster(11, nodes, 4, hostos.DefaultClusterConfig())
	defer cl.Shutdown()

	// Cross-cluster pairing: almost every pair straddles a shard boundary,
	// so acks constantly release foreign-allocated control headers into
	// local pools.
	states, err := spawnEchoPairs(cl, pairs, msgs, func(i int) (srv, cli int) { return i, pairs + i })
	if err != nil {
		t.Fatal(err)
	}
	cl.RunUntilDone(5*sim.Millisecond, sim.Time(0).Add(30*sim.Second), echoPairsDone(states))
	for i, ps := range states {
		if !ps.done {
			t.Fatalf("pair %d did not finish", i)
		}
	}
	if err := poolLocality(cl); err != nil {
		t.Fatal(err)
	}
	if _, exchanged := cl.Coord.ExchangeStats(); exchanged == 0 {
		t.Fatalf("hammer never crossed a shard boundary")
	}
}
