package main

import (
	"time"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
	"virtnet/internal/trace"
)

// Layer probes: each times one layer's public calls in host nanoseconds on
// the smallest fixture that runs, away from any workload. They answer "what
// does this layer cost by itself?", which neither a host-clock span (it
// would time the whole simulator, see spans.go) nor the CPU profile (shares,
// not absolute costs) can.
//
// The fixtures nest, so costs are read by subtraction:
//
//	sim.probe_timer_ns        schedule + fire one no-op event on a bare engine
//	sim.probe_switch_ns       one Proc.Sleep: an event plus a goroutine hand-off
//	sim.probe_barrier_ns      one empty window of a 2-shard coordinator
//	netsim.probe_hop_ns       one Network.Send across two switches, no NIC
//	core.probe_rtt_host_ns    one short request/reply on a 2-node cluster:
//	                          core + nic + netsim + hostos + sim together
//	core.probe_bulk8k_host_ns the same with an 8 KB payload — the only place
//	                          the benchmark times the bulk/DMA path
//	rpc.probe_call_host_ns    one 64-byte Client.Call on the same cluster;
//	                          minus core.probe_rtt_host_ns it is rpc's own
//	                          cost: rpc − core = framing, reliab header,
//	                          result matching and the Call/Serve wait loops
//	reliab.probe_admit_ns     AdmitQueue.Admit + Pop
//	obs.probe_flight_ns       sample, mark eight stages and finish one flight
//	trace.probe_inc_ns        Counters.Inc by string key
//
// Every probe repeats a batch until probeBudget has passed and reports the
// median batch, in nanoseconds per operation.

const probeBudget = 500 * time.Millisecond

// timeBatches runs batch (which performs n operations) until budget has
// passed and returns the median nanoseconds per operation.
func timeBatches(budget time.Duration, n int, batch func()) float64 {
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// runProbes returns every probe metric.
func runProbes(budget time.Duration) map[string]float64 {
	out := map[string]float64{
		"sim.probe_timer_ns":     probeTimer(budget),
		"sim.probe_switch_ns":    probeSwitch(budget),
		"sim.probe_barrier_ns":   probeBarrier(budget),
		"netsim.probe_hop_ns":    probeHop(budget),
		"reliab.probe_admit_ns":  probeAdmit(budget),
		"obs.probe_flight_ns":    probeFlight(budget),
		"trace.probe_inc_ns":     probeInc(budget),
		"rpc.probe_call_host_ns": probeCall(budget),
	}
	out["core.probe_rtt_host_ns"] = probeRTT(budget, 0)
	out["core.probe_bulk8k_host_ns"] = probeRTT(budget, 8192)
	return out
}

func probeTimer(budget time.Duration) float64 {
	e := sim.NewEngine(1)
	noop := func() {}
	const n = 20000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			e.AfterFunc(sim.Duration(i%1000+1), noop)
		}
		e.Run()
	})
}

func probeSwitch(budget time.Duration) float64 {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	// Two procs sleeping in turn: every Sleep parks one goroutine and the
	// event that ends the other's Sleep resumes it.
	const n = 10000
	for i := 0; i < 2; i++ {
		e.Spawn("probe-sleeper", func(p *sim.Proc) {
			for {
				p.Sleep(sim.Microsecond)
			}
		})
	}
	return timeBatches(budget, n, func() { e.RunFor(n / 2 * sim.Microsecond) })
}

func probeBarrier(budget time.Duration) float64 {
	const window = 1200 * sim.Nanosecond
	c := sim.NewCoordinator(1, 2, window)
	defer c.Shutdown()
	// With nothing pending, each RunFor of one window is exactly one
	// barrier: both shard workers are released and awaited.
	const n = 2000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			c.RunFor(window)
		}
	})
}

func probeHop(budget time.Duration) float64 {
	e := sim.NewEngine(1)
	net := netsim.New(e, netsim.DefaultConfig(), 10)
	sink := func(*netsim.Packet) {}
	net.Attach(0, sink)
	net.Attach(5, sink) // another leaf: the path crosses two switches
	const n = 5000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			p := net.AllocPacket()
			p.Src, p.Dst, p.Size = 0, 5, 64
			net.Send(p, 0)
			p.Release()
			if i%16 == 15 {
				e.Run()
			}
		}
		e.Run()
	})
}

func probeAdmit(budget time.Duration) float64 {
	q := reliab.NewAdmitQueue(16, nil)
	const n = 50000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			q.Admit(sim.Time(i), reliab.Ctx{}, nil)
			q.Pop()
		}
	})
}

func probeFlight(budget time.Duration) float64 {
	e := sim.NewEngine(1)
	// A small ring, so retained flights do not grow the heap while timing.
	t := obs.NewTracer(e, 1, 1, 64)
	const n = 10000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			now := sim.Time(i)
			f := t.Sample(0, 0, obs.KindShort, now)
			for st := obs.StageHostPost; st <= obs.StageHandler; st++ {
				f.Mark(st, now)
			}
			f.Finish(now)
		}
	})
}

func probeInc(budget time.Duration) float64 {
	c := trace.NewCounters()
	const n = 100000
	return timeBatches(budget, n, func() {
		for i := 0; i < n; i++ {
			c.Inc("tx.data")
		}
	})
}

// newPair is the 2-node cluster of the core and rpc probes.
func newPair() *hostos.Cluster {
	return hostos.NewCluster(1, 2, hostos.DefaultClusterConfig())
}

// probeRTT times one request/reply exchange between two nodes, with a
// payload of the given size (0 = a short message).
func probeRTT(budget time.Duration, payloadBytes int) float64 {
	cl := newPair()
	defer cl.Shutdown()
	sep, err1 := core.Attach(cl.Nodes[0]).NewEndpoint(1, 2)
	cep, err2 := core.Attach(cl.Nodes[1]).NewEndpoint(2, 2)
	if err1 != nil || err2 != nil {
		return 0
	}
	if sep.Map(0, cep.Name(), 2) != nil || cep.Map(0, sep.Name(), 1) != nil {
		return 0
	}
	sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		tok.Reply(p, hRep, args)
	})
	got := 0
	cep.SetHandler(hRep, func(*sim.Proc, *core.Token, [4]uint64, []byte) { got++ })
	cl.Nodes[0].Spawn("probe-srv", func(p *sim.Proc) {
		for {
			if sep.Poll(p) == 0 {
				p.Sleep(sim.Microsecond)
			}
		}
	})
	payload := make([]byte, payloadBytes)
	sent := 0
	cl.Nodes[1].Spawn("probe-cli", func(p *sim.Proc) {
		for {
			var err error
			if payloadBytes > 0 {
				err = cep.RequestBulk(p, 0, hReq, payload, [4]uint64{})
			} else {
				err = cep.Request(p, 0, hReq, [4]uint64{})
			}
			if err != nil {
				return
			}
			sent++
			for got < sent {
				if cep.Poll(p) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		}
	})
	return perOp(budget, cl, func() int { return got })
}

// probeCall times one synchronous 64-byte rpc call between two nodes.
func probeCall(budget time.Duration) float64 {
	cl := newPair()
	defer cl.Shutdown()
	srv, err := rpc.NewServer(cl.Nodes[0], 7)
	if err != nil {
		return 0
	}
	srv.Register(procEcho, func(_ *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	cli, err := rpc.NewClient(cl.Nodes[1], srv.Name(), srv.Key())
	if err != nil {
		return 0
	}
	cl.Nodes[0].Spawn("probe-srv", func(p *sim.Proc) { srv.Serve(p, func() bool { return false }) })
	calls := 0
	cl.Nodes[1].Spawn("probe-cli", func(p *sim.Proc) {
		payload := make([]byte, scalePayload)
		for {
			if _, err := cli.Call(p, procEcho, payload, 0); err != nil {
				return
			}
			calls++
		}
	})
	return perOp(budget, cl, func() int { return calls })
}

// perOp advances cl in 2 ms slices of virtual time until budget has passed
// and returns the median host nanoseconds per operation counted by count.
func perOp(budget time.Duration, cl *hostos.Cluster, count func() int) float64 {
	cl.RunFor(2 * sim.Millisecond) // first-use costs: endpoint load, credits
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		before := count()
		t0 := time.Now()
		cl.RunFor(2 * sim.Millisecond)
		if n := count() - before; n > 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		} else if time.Since(start) > 4*budget {
			return 0 // the fixture is stuck; report nothing rather than hang
		}
	}
	return median(per)
}
