package bench

import (
	"fmt"
	"io"
	"runtime"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// simPerfConfig parameterizes the event-engine self-benchmark: a 2*Pairs-node
// cluster where each client streams small requests at its server as fast as
// the credit window allows. The workload exercises the full event hot path —
// NI firmware loops, retransmit timers, network transit events, proc wakeups.
type simPerfConfig struct {
	Pairs int // client/server pairs; the cluster has 2*Pairs nodes
	Msgs  int // requests per client
	Seed  int64

	// Hosts, when > 0, sizes the cluster explicitly (Pairs defaults to
	// Hosts/2) and switches to the scaled placement: pair i is hosts
	// (2i, 2i+1) — same leaf — except every fourth pair in the lower half
	// swaps clients with its upper-half partner, so ~25% of the traffic
	// crosses leaves (and shards). Clusters of 512+ hosts get a three-level
	// fat tree (8 hosts/leaf, 4 pod spines, 16 leaves/pod, 8 cores).
	// 0 keeps the classic 2*Pairs layout on the default 100-node topology.
	Hosts int
	// Shards is the number of engine shards; 0 or 1 is one shard.
	Shards int
}

// simPerfResult holds the deterministic virtual-time metrics (safe to
// golden) and the host heap allocations over the measured run, setup
// excluded, which only the alloc-budget test reads.
type simPerfResult struct {
	Replied    int64        // requests that completed with a reply
	Virtual    sim.Duration // virtual time at which the last client drained
	Engine     sim.Stats    // engine counters at completion
	MsgsPerSec float64      // virtual-time message rate
	Mallocs    uint64
}

// runSimPerf builds the cluster, streams Pairs*Msgs request/reply exchanges
// to completion, and reports both metric sets.
func runSimPerf(cfg simPerfConfig) (simPerfResult, error) {
	if cfg.Pairs == 0 {
		if cfg.Hosts > 0 {
			cfg.Pairs = cfg.Hosts / 2
		} else {
			cfg.Pairs = 8
		}
	}
	if cfg.Msgs == 0 {
		cfg.Msgs = 10000
	}
	nhosts := 2 * cfg.Pairs
	ccfg := hostos.DefaultClusterConfig()
	if cfg.Hosts > 0 {
		nhosts = cfg.Hosts
		if 2*cfg.Pairs > nhosts {
			cfg.Pairs = nhosts / 2
		}
		if nhosts >= 512 {
			threeLevelFatTree(&ccfg)
		}
	}
	// place maps pair i to its (server, client) hosts. The classic layout
	// (Hosts == 0) is servers then clients, unchanged from the original
	// benchmark; the scaled layout colocates each pair on one leaf and then
	// swaps every fourth lower-half pair's client with its upper-half
	// partner's, mixing local and cross-shard streams.
	place := func(i int) (srv, cli int) {
		if cfg.Hosts == 0 {
			return i, cfg.Pairs + i
		}
		srv, cli = 2*i, 2*i+1
		half := cfg.Pairs / 2
		if i < half && i%4 == 0 {
			cli = 2*(i+half) + 1
		} else if j := i - half; j >= 0 && j%4 == 0 && j < half {
			cli = 2*j + 1
		}
		return
	}
	cl := hostos.NewShardedCluster(cfg.Seed, nhosts, cfg.Shards, ccfg)
	defer cl.Shutdown()
	pairs, err := spawnEchoPairs(cl, cfg.Pairs, cfg.Msgs, place)
	if err != nil {
		return simPerfResult{}, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cl.RunUntilDone(10*sim.Millisecond, sim.Time(0).Add(300*sim.Second), echoPairsDone(pairs))
	runtime.ReadMemStats(&ms1)

	res := simPerfResult{Engine: cl.EngineStats(), Mallocs: ms1.Mallocs - ms0.Mallocs}
	for _, ps := range pairs {
		res.Replied += ps.got
		if ps.doneAt > sim.Time(res.Virtual) {
			res.Virtual = sim.Duration(ps.doneAt)
		}
	}
	if res.Virtual > 0 {
		res.MsgsPerSec = float64(res.Replied) / res.Virtual.Seconds()
	}
	return res, nil
}

// bigSimPerf is the scaling workload: hosts/2 pairs of 60 requests each,
// ~25% of the streams crossing leaves (and shards); from 512 hosts up it runs
// on the three-level fat tree.
func bigSimPerf(seed int64, hosts, shards int) simPerfConfig {
	return simPerfConfig{Hosts: hosts, Pairs: hosts / 2, Msgs: 60, Seed: seed, Shards: shards}
}

// simPerfSection runs one simperf section and prints its virtual-time
// metrics to w.
func simPerfSection(w io.Writer, cfg simPerfConfig) error {
	res, err := runSimPerf(cfg)
	if err != nil {
		return err
	}
	msgs := float64(res.Replied)
	fmt.Fprintf(w, "pairs=%d nodes=%d msgs/client=%d\n", cfg.Pairs, max(cfg.Hosts, 2*cfg.Pairs), cfg.Msgs)
	fmt.Fprintf(w, "virtual: replied=%d time=%v rate=%.0f msgs/s\n",
		res.Replied, res.Virtual, res.MsgsPerSec)
	s := res.Engine
	hitRate := 0.0
	if s.PoolHits+s.PoolMisses > 0 {
		hitRate = float64(s.PoolHits) / float64(s.PoolHits+s.PoolMisses)
	}
	fmt.Fprintf(w, "events: fired=%d (%.1f/msg), cascaded=%d (%.1f/msg), max pending=%d, pool hit rate=%.3f\n",
		s.Fired, float64(s.Fired)/msgs, s.Cascaded, float64(s.Cascaded)/msgs, s.MaxPending, hitRate)
	return nil
}

// simPerfRow is the event-engine self-benchmark: client/server pairs stream
// small requests to completion. With default flags it prints the two golden
// sections — the original 16-node stream and the 1,024-host single-shard
// baseline — both captured in results_simperf.txt. -hosts/-shards run one
// custom section instead. It prints nothing measured in host time: vnperf
// (benchmarks/) is the wall-clock yardstick.
func simPerfRow(w io.Writer, p Params) error {
	if p.Hosts == 1 {
		return fmt.Errorf("-hosts 1: simperf needs at least 2 hosts, for one pair")
	}
	if p.Hosts != 0 || p.Shards > 1 {
		shards := max(p.Shards, 1)
		cfg := simPerfConfig{Pairs: 8, Msgs: 10000, Seed: p.Seed, Shards: shards}
		if p.Hosts != 0 {
			cfg = bigSimPerf(p.Seed, p.Hosts, shards)
		}
		header(w, fmt.Sprintf("simperf — event-engine self-benchmark (%d hosts, %d shards)",
			max(cfg.Hosts, 2*cfg.Pairs), shards))
		return simPerfSection(w, cfg)
	}
	header(w, "simperf — event-engine self-benchmark (16-node stream)")
	if err := simPerfSection(w, simPerfConfig{Pairs: 8, Msgs: 10000, Seed: p.Seed}); err != nil {
		return err
	}
	header(w, "simperf — 1,024-host cluster baseline (1 shard)")
	return simPerfSection(w, bigSimPerf(p.Seed, 1024, 1))
}
