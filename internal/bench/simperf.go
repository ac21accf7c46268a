package bench

import (
	"fmt"
	"runtime"
	"time"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// SimPerfConfig parameterizes the event-engine self-benchmark: a 2*Pairs-node
// cluster where each client streams small requests at its server as fast as
// the credit window allows. The workload exercises the full event hot path —
// NI firmware loops, retransmit timers, network transit events, proc wakeups.
type SimPerfConfig struct {
	Pairs int // client/server pairs; the cluster has 2*Pairs nodes
	Msgs  int // requests per client
	Seed  int64
	// TraceSample, when > 0, enables the obs flight recorder at 1-in-N
	// sampling over the same workload. 0 leaves observability entirely off —
	// the baseline hot path the overhead-guard benchmarks compare against.
	TraceSample int

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

// SimPerfResult separates deterministic virtual-time metrics (safe to golden)
// from wall-clock metrics (machine-dependent, never golden).
type SimPerfResult struct {
	Cfg     SimPerfConfig
	Replied int64        // requests that completed with a reply
	Virtual sim.Duration // virtual time at which the last client drained
	Engine  sim.Stats    // engine counters at completion

	// Wall-clock section: host time and heap allocations over the measured
	// run (setup excluded), and the events fired within it.
	Wall       time.Duration
	Mallocs    uint64
	EventsRun  uint64
	MsgsPerSec float64 // virtual-time message rate
}

// RunSimPerf builds the cluster, streams Pairs*Msgs request/reply exchanges
// to completion, and reports both metric sets.
func RunSimPerf(cfg SimPerfConfig) SimPerfResult {
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
			ccfg.Net.HostsPerLeaf = 8
			ccfg.Net.Spines = 4
			ccfg.Net.LeavesPerPod = 16
			ccfg.Net.Cores = 8
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
	if cfg.TraceSample > 0 {
		cl.EnableObs(obs.Options{SampleEvery: cfg.TraceSample})
	}

	type pairState struct {
		got    int
		done   bool
		doneAt sim.Time
	}
	states := make([]*pairState, cfg.Pairs)
	for i := 0; i < cfg.Pairs; i++ {
		ps := &pairState{}
		states[i] = ps
		srvHost, cliHost := place(i)
		srvNode := cl.Nodes[srvHost]
		cliNode := cl.Nodes[cliHost]

		sb := core.Attach(srvNode)
		sep, err := sb.NewEndpoint(core.Key(100+i), 8)
		if err != nil {
			panic(err)
		}
		cb := core.Attach(cliNode)
		cep, err := cb.NewEndpoint(core.Key(200+i), 8)
		if err != nil {
			panic(err)
		}
		sep.Map(0, cep.Name(), core.Key(200+i))
		cep.Map(0, sep.Name(), core.Key(100+i))

		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			tok.Reply(p, hRep, args)
		})
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			ps.got++
		})
		srvNode.Spawn(fmt.Sprintf("sp-srv%d", i), func(p *sim.Proc) {
			for {
				if sep.Poll(p) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		})
		cliNode.Spawn(fmt.Sprintf("sp-cli%d", i), func(p *sim.Proc) {
			for s := 0; s < cfg.Msgs; s++ {
				if cep.Request(p, 0, hReq, [4]uint64{uint64(s)}) != nil {
					return
				}
				cep.Poll(p)
			}
			for ps.got < cfg.Msgs {
				cep.Poll(p)
				p.Sleep(sim.Microsecond)
			}
			ps.done = true
			ps.doneAt = p.Now()
		})
	}

	before := cl.EngineStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	deadline := sim.Time(0).Add(300 * sim.Second)
	for cl.Now() < deadline {
		cl.RunFor(10 * sim.Millisecond)
		all := true
		for _, ps := range states {
			all = all && ps.done
		}
		if all {
			break
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	after := cl.EngineStats()

	res := SimPerfResult{
		Cfg:       cfg,
		Engine:    after,
		Wall:      wall,
		Mallocs:   ms1.Mallocs - ms0.Mallocs,
		EventsRun: after.Fired - before.Fired,
	}
	for _, ps := range states {
		res.Replied += int64(ps.got)
		if ps.doneAt > sim.Time(res.Virtual) {
			res.Virtual = sim.Duration(ps.doneAt)
		}
	}
	if res.Virtual > 0 {
		res.MsgsPerSec = float64(res.Replied) / res.Virtual.Seconds()
	}
	return res
}
