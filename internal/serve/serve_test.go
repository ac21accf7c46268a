package serve

import (
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// runKV runs a tiny KV serving scenario (2 shards, 2 open-loop clients)
// and returns the merged SLO line — reused by the determinism test.
func runKV(t *testing.T, seed int64) (string, *SLO) {
	t.Helper()
	const (
		nServers = 2
		nClients = 2
		lambda   = 2000.0
		measure  = 100 * sim.Millisecond
	)
	c := hostos.NewCluster(seed, nServers+nClients, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	m := reliab.NewMetrics()
	sopts := rpc.Options{Metrics: m, Queue: 64, IdemCap: 4096}
	ring := NewRing(nServers, 16)
	stop := false
	servers := make([]*KVServer, nServers)
	addrs := make([]Addr, nServers)
	for i := 0; i < nServers; i++ {
		kv, err := NewKVServer(c.Nodes[i], core100+coreKey(i), KVServerConfig{Service: 50 * sim.Microsecond, Opts: sopts})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = kv
		addrs[i] = kv.Addr()
		kv.node.Spawn("kv-serve", func(p *sim.Proc) { kv.Serve(p, func() bool { return stop }) })
	}
	slos := make([]*SLO, nClients)
	for i := 0; i < nClients; i++ {
		ci := i
		slos[ci] = NewSLO()
		node := c.Nodes[nServers+ci]
		node.Spawn("kv-client", func(p *sim.Proc) {
			w, err := NewKVWorkload(node, addrs, KVWorkloadConfig{
				Ring:     ring,
				Keys:     NewHotKeys(10000, 8, 0.2, DeriveRNG(seed, uint64(2*ci+1))),
				PutFrac:  0.2,
				Replicas: 2,
				ValSize:  64,
				IdemPuts: true,
				ClientID: uint64(ci),
			}, rpc.Options{Metrics: m}, DeriveRNG(seed, uint64(2*ci+2)))
			if err != nil {
				t.Errorf("workload: %v", err)
				return
			}
			RunClient(p, w, ClientConfig{
				Arr:         NewPoisson(lambda, DeriveRNG(seed, uint64(100+ci))),
				Deadline:    20 * sim.Millisecond,
				MaxOut:      64,
				Stop:        sim.Time(50*sim.Millisecond) + sim.Time(measure),
				MeasureFrom: sim.Time(50 * sim.Millisecond),
				MeasureTo:   sim.Time(50*sim.Millisecond) + sim.Time(measure),
			}, slos[ci])
			if r, ri, d := w.Pool().Outstanding(); r != 0 || ri != 0 || d != 0 {
				t.Errorf("client %d leaked pool state: %d/%d/%d", ci, r, ri, d)
			}
		})
	}
	c.RunFor(400 * sim.Millisecond)
	stop = true
	c.RunFor(50 * sim.Millisecond)
	total := NewSLO()
	for _, s := range slos {
		total.Merge(s)
	}
	return total.Line(measure), total
}

const core100 = core.Key(100)

func coreKey(i int) core.Key { return core.Key(i) }

func TestKVOpenLoopEndToEnd(t *testing.T) {
	_, slo := runKV(t, 42)
	// 2 clients × 2000/s × 100ms ≈ 400 offered.
	if slo.Offered < 300 || slo.Offered > 500 {
		t.Fatalf("offered = %d, want ≈400", slo.Offered)
	}
	if slo.GoodputFrac() < 0.95 {
		t.Fatalf("goodput %.2f%% at light load, want ≥95%% (slo: %+v)", 100*slo.GoodputFrac(), slo)
	}
	if slo.Lat.Quantile(0.5) <= 0 {
		t.Fatal("no latency samples")
	}
}

// The whole serving path — arrivals, key picks, RPC, harvest — must be
// byte-deterministic per seed.
func TestKVRunDeterministicPerSeed(t *testing.T) {
	a, _ := runKV(t, 7)
	b, _ := runKV(t, 7)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n  %s\n  %s", a, b)
	}
	c, _ := runKV(t, 8)
	if a == c {
		t.Fatalf("different seeds produced identical SLO line: %s", a)
	}
}

func TestParameterServerPushPull(t *testing.T) {
	const seed = 13
	c := hostos.NewCluster(seed, 3, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	stop := false
	var addrs []Addr
	// The shards' calls, counted as they arrive: pushes carry updates,
	// (index, delta) pairs.
	var pulls, pushes, updates int64
	for i := 0; i < 2; i++ {
		ps, err := NewPSServer(c.Nodes[i], core100+coreKey(i), rpc.Options{Queue: 64})
		if err != nil {
			t.Fatal(err)
		}
		ps.S.Register(ProcPSPull, func(p *sim.Proc, args []byte) ([]byte, error) {
			pulls++
			return ps.pull(p, args)
		})
		ps.S.Register(ProcPSPush, func(p *sim.Proc, args []byte) ([]byte, error) {
			pushes++
			updates += int64(len(args) / 8)
			return ps.push(p, args)
		})
		addrs = append(addrs, ps.Addr())
		ps.node.Spawn("ps-serve", func(p *sim.Proc) { ps.Serve(p, func() bool { return stop }) })
	}
	slo := NewSLO()
	c.Nodes[2].Spawn("ps-worker", func(p *sim.Proc) {
		w, err := NewPSWorkload(c.Nodes[2], addrs, PSWorkloadConfig{
			PushEvery: 4, BatchSize: 8,
		}, rpc.Options{}, DeriveRNG(seed, 1))
		if err != nil {
			t.Errorf("workload: %v", err)
			return
		}
		RunClient(p, w, ClientConfig{
			Arr:       NewPoisson(1000, DeriveRNG(seed, 2)),
			Deadline:  20 * sim.Millisecond,
			MaxOut:    32,
			Stop:      sim.Time(200 * sim.Millisecond),
			MeasureTo: sim.Time(200 * sim.Millisecond),
		}, slo)
	})
	c.RunFor(400 * sim.Millisecond)
	stop = true
	c.RunFor(50 * sim.Millisecond)
	if pulls == 0 || pushes == 0 {
		t.Fatalf("pulls=%d pushes=%d, want both nonzero", pulls, pushes)
	}
	// Every 4th arrival pushes the accumulated 4×8 deltas.
	if updates != pushes*4*8 {
		t.Fatalf("updates=%d, want pushes×32=%d (batched flush broken)", updates, pushes*32)
	}
	if pulls < 2*pushes {
		t.Fatalf("pulls=%d pushes=%d: batching should make pulls ≈3× pushes", pulls, pushes)
	}
	if slo.GoodputFrac() < 0.95 {
		t.Fatalf("goodput %.2f%% at light load", 100*slo.GoodputFrac())
	}
}

// Hedged requests must rescue a straggling backend: with one backend 8×
// slower, hedging keeps goodput high and actually fires.
func TestGatewayHedgingRescuesStraggler(t *testing.T) {
	const seed = 21
	c := hostos.NewCluster(seed, 5, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	stop := false
	var baddrs []Addr
	for i := 0; i < 3; i++ {
		b, err := NewBackend(c.Nodes[i], core100+coreKey(i), rpc.Options{Queue: 64})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// The straggler computes 7 more service times per evaluation.
			b.S.Register(ProcBackend, func(p *sim.Proc, args []byte) ([]byte, error) {
				b.node.Compute(p, 7*BackendService)
				return b.eval(p, args)
			})
		}
		baddrs = append(baddrs, b.Addr())
		b.node.Spawn("backend", func(p *sim.Proc) { b.Serve(p, func() bool { return stop }) })
	}
	gw, err := NewGateway(c.Nodes[3], 200, baddrs, GatewayConfig{
		FanOut:  2,
		Workers: 8,
		Opts:    rpc.Options{Queue: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A tighter budget than the serve row's, as this test has always run.
	gw.hb = reliab.NewBudget(50, sim.Millisecond)
	gw.Start(func() bool { return stop })
	slo := NewSLO()
	c.Nodes[4].Spawn("gw-client", func(p *sim.Proc) {
		w, err := NewGatewayWorkload(c.Nodes[4], []Addr{gw.Addr()}, rpc.Options{})
		if err != nil {
			t.Errorf("workload: %v", err)
			return
		}
		RunClient(p, w, ClientConfig{
			Arr:       NewPoisson(400, DeriveRNG(seed, 60)),
			Deadline:  20 * sim.Millisecond,
			MaxOut:    32,
			Stop:      sim.Time(200 * sim.Millisecond),
			MeasureTo: sim.Time(200 * sim.Millisecond),
		}, slo)
	})
	c.RunFor(500 * sim.Millisecond)
	stop = true
	c.RunFor(50 * sim.Millisecond)
	if gw.Hedges == 0 || gw.HedgeWins == 0 {
		t.Fatalf("hedges=%d wins=%d: straggler at 8× service should trigger hedging", gw.Hedges, gw.HedgeWins)
	}
	if slo.GoodputFrac() < 0.9 {
		t.Fatalf("goodput %.2f%% with hedging on, want ≥90%%", 100*slo.GoodputFrac())
	}
}
