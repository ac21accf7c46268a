package bench

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/serve"
	"virtnet/internal/sim"
	"virtnet/internal/vnet"
)

// Serving-workload constants shared by every scenario. Service is sized in
// milliseconds so a 32-server pool saturates in the tens of thousands of
// requests per second — big enough for real tail statistics, small enough
// that a full offered-load sweep stays CI-friendly.
const (
	serveService  = sim.Millisecond       // per-op server compute
	serveDeadline = 20 * sim.Millisecond  // end-to-end SLO deadline
	serveQueue    = 16                    // bounded admission: 16×1ms < deadline
	serveMaxOut   = 48                    // per-client inflight cap
	serveKeys     = 100_000               // key space
	serveIdemCap  = 1 << 14               // server idempotency cache
	serveDrain    = 2 * serveDeadline     // post-Stop harvest window
	serveWarmup   = 50 * sim.Millisecond  // steady-state ramp before measurement
	serveWindow   = 150 * sim.Millisecond // measurement window
)

// serveConfig parameterizes one point of the serving-workload experiment:
// one scenario at one offered-load factor.
type serveConfig struct {
	Scenario string  // see serveScenarios
	Factor   float64 // offered load as a multiple of estimated capacity
	Hosts    int     // cluster size
	Servers  int     // serving nodes; gateway adds its tier on top
	Clients  int     // open-loop client procs
	Shards   int     // engine shards (0/1 = one shard)
	Seed     int64
	// Ablate turns the reliability layer off: unbounded FIFO admission, no
	// shedding, no breakers. Past saturation the queues only grow and every
	// reply is stale — the collapse the golden curves contrast against.
	Ablate bool
	// TraceSample, when > 0, enables the flight recorder at 1-in-N sampling:
	// each client's measured arrivals become request trace trees (root,
	// per-fragment wire spans, server op spans), merged across shards after
	// the run into Flights/Attr. 0 leaves tracing off.
	TraceSample int
}

// serveResult is one row of the offered-load sweep: the merged SLO across
// all clients plus the reliability-layer and app counters that explain it.
type serveResult struct {
	Capacity float64 // estimated req/s at the configured service times
	SLO      *serve.SLO

	SrvShed   int64 // server-side admission rejections (summed, server order)
	Hedges    int64 // gateway scenario: hedges issued / won
	HedgeWins int64

	// Flights is the merged cross-shard trace timeline (TraceSample > 0
	// only), ordered by (time, shard, sequence); Attr is the tail
	// attribution computed over its finished request trees. Tracers holds
	// the per-shard arenas (shard order) and ShardOf the node→shard map,
	// for Perfetto export of the merged timeline.
	Flights []*obs.Flight
	Attr    *obs.Attribution
	Tracers []*obs.Tracer
	ShardOf func(node int) int
}

// serveScenario names one scenario axis of the serving experiment.
type serveScenario struct {
	Name string
	Desc string
}

// serveScenarios lists every scenario runServePoint accepts, in display
// order. The first four plus the ablation form the golden sweep.
func serveScenarios() []serveScenario {
	return []serveScenario{
		{"baseline", "sharded KV, uniform keys, 20% puts ×2 replicas, Poisson arrivals"},
		{"hotkey", "baseline with 50% of ops on one hot key (one shard saturates first)"},
		{"incast", "read-only 8-way scatter-gather gets with 4KiB padded responses"},
		{"faultchurn", "baseline under a seeded random fault plan (links, bursts, crashes)"},
		{"elephant", "baseline with a 64KiB elephant put every 50th op"},
		{"straggler", "baseline with shard 0 running 8× slower"},
		{"mmpp", "baseline driven by bursty MMPP arrivals (½× base, 3× burst)"},
		{"diurnal", "baseline driven by a diurnal ramp (⅓×–5⁄3× triangle)"},
		{"interference", "baseline with a noise tenant overcommitting server NI frames (vnet)"},
		{"gateway", "inference gateways fanning to 4 backends with hedged requests"},
		{"ps", "parameter server: windowed pulls, batched gradient pushes"},
	}
}

// scenarioDesc returns the description of the named scenario, "" when
// runServePoint does not accept the name.
func scenarioDesc(name string) string {
	for _, s := range serveScenarios() {
		if s.Name == name {
			return s.Desc
		}
	}
	return ""
}

// runServePoint runs one scenario at one offered-load factor and returns
// the merged SLO. Everything is deterministic per (Seed, Shards): arrival
// schedules and key picks come from derived PRNG streams, per-client SLOs
// merge in client order, and per-server metrics sum in server order.
func runServePoint(cfg serveConfig) (serveResult, error) {
	if scenarioDesc(cfg.Scenario) == "" {
		return serveResult{}, fmt.Errorf("unknown scenario %q (-scenario list prints them)", cfg.Scenario)
	}
	if cfg.Hosts <= 0 || cfg.Servers <= 0 || cfg.Clients <= 0 || cfg.Factor <= 0 {
		return serveResult{}, fmt.Errorf("serve config %+v: sizes and factor must all be positive", cfg)
	}

	ccfg := hostos.DefaultClusterConfig()
	if cfg.Hosts >= 128 {
		threeLevelFatTree(&ccfg)
	}
	c := hostos.NewShardedCluster(cfg.Seed, cfg.Hosts, cfg.Shards, ccfg)
	defer c.Shutdown()
	if cfg.TraceSample > 0 {
		// Before any server attaches: bundles capture the tracer at attach.
		c.EnableObs(obs.Options{SampleEvery: cfg.TraceSample, RingCap: 1 << 14})
	}

	var res serveResult
	stop := false
	stopFn := func() bool { return stop }

	srvOpts := rpc.Options{Queue: serveQueue, IdemCap: serveIdemCap}
	if cfg.Ablate {
		srvOpts = rpc.Options{Queue: 1 << 20, NoShed: true, IdemCap: serveIdemCap}
	}

	// Per-server reliab metrics: procs on different shards run
	// concurrently, so nothing is shared; sums happen after the run in a
	// fixed order.
	var srvMetrics []*reliab.Metrics
	newSrvOpts := func() rpc.Options {
		m := reliab.NewMetrics()
		srvMetrics = append(srvMetrics, m)
		o := srvOpts
		o.Metrics = m
		return o
	}

	// App wiring. Each branch fills capacity and the per-client workload
	// factory; the gateway scenario also its gateways.
	var makeWorkload func(ci int, node *hostos.Node, copts rpc.Options) (serve.Workload, error)
	var gws []*serve.Gateway
	clientBase := cfg.Servers // first client node index

	switch cfg.Scenario {
	case "gateway":
		nBack := cfg.Servers
		nGW := nBack / 4
		if nGW < 2 {
			nGW = 2
		}
		clientBase = nBack + nGW
		const fanOut = 4
		res.Capacity = float64(nBack) * (float64(sim.Second) / float64(serve.BackendService)) / fanOut
		baddrs := make([]serve.Addr, nBack)
		for i := 0; i < nBack; i++ {
			b, err := serve.NewBackend(c.Nodes[i], core.Key(5000+i), newSrvOpts())
			if err != nil {
				return res, err
			}
			baddrs[i] = b.Addr()
			c.Nodes[i].Spawn("serve-backend", func(p *sim.Proc) { b.Serve(p, stopFn) })
		}
		gws = make([]*serve.Gateway, nGW)
		gaddrs := make([]serve.Addr, nGW)
		for g := 0; g < nGW; g++ {
			node := c.Nodes[nBack+g]
			gw, err := serve.NewGateway(node, core.Key(6000+g), baddrs, serve.GatewayConfig{
				FanOut:  fanOut,
				Workers: 8,
				Opts:    newSrvOpts(),
			})
			if err != nil {
				return res, err
			}
			gws[g] = gw
			gaddrs[g] = gw.Addr()
			gw.Start(stopFn)
		}
		makeWorkload = func(ci int, node *hostos.Node, copts rpc.Options) (serve.Workload, error) {
			return serve.NewGatewayWorkload(node, gaddrs, copts)
		}

	case "ps":
		// A push flushes pushEvery×batch = 32 values, the pull window, so
		// pull and push cost the same by construction.
		const pushEvery, batch = 4, 8
		res.Capacity = float64(cfg.Servers) * float64(sim.Second) / float64(serve.PSPullCost)
		addrs := make([]serve.Addr, cfg.Servers)
		for i := 0; i < cfg.Servers; i++ {
			ps, err := serve.NewPSServer(c.Nodes[i], core.Key(5000+i), newSrvOpts())
			if err != nil {
				return res, err
			}
			addrs[i] = ps.Addr()
			c.Nodes[i].Spawn("serve-ps", func(p *sim.Proc) { ps.Serve(p, stopFn) })
		}
		makeWorkload = func(ci int, node *hostos.Node, copts rpc.Options) (serve.Workload, error) {
			return serve.NewPSWorkload(node, addrs, serve.PSWorkloadConfig{
				PushEvery: pushEvery, BatchSize: batch,
			}, copts, serve.DeriveRNG(cfg.Seed, 0x30000+uint64(ci)))
		}

	default: // the KV family
		wcfg := serve.KVWorkloadConfig{
			PutFrac:  0.2,
			Replicas: 2,
			ValSize:  128,
			IdemPuts: true,
		}
		kcfg := serve.KVServerConfig{Service: serveService}
		switch cfg.Scenario {
		case "hotkey":
			// handled per client below (hot-key distribution)
		case "incast":
			wcfg.PutFrac = 0
			wcfg.Replicas = 1
			wcfg.FanReads = 8
			kcfg.PadGets = 4096
			kcfg.PerByte = 0 // compute flat; the fabric carries the fan-in
		case "elephant":
			wcfg.BigEvery = 50
			wcfg.BigSize = 64 << 10
			kcfg.PerByte = 20 * sim.Nanosecond
		}
		// Work per offered op, in units of one service time.
		workPerOp := (1 - wcfg.PutFrac) + wcfg.PutFrac*float64(wcfg.Replicas)
		if wcfg.FanReads > 1 {
			workPerOp = float64(wcfg.FanReads)
		}
		if wcfg.BigEvery > 0 {
			bigCost := float64(serveService+sim.Duration(wcfg.BigSize)*kcfg.PerByte) / float64(serveService)
			workPerOp += float64(wcfg.Replicas)*bigCost/float64(wcfg.BigEvery) - workPerOp/float64(wcfg.BigEvery)
		}
		res.Capacity = float64(cfg.Servers) * (float64(sim.Second) / float64(serveService)) / workPerOp

		ring := serve.NewRing(cfg.Servers, 64)
		wcfg.Ring = ring
		addrs := make([]serve.Addr, cfg.Servers)
		for i := 0; i < cfg.Servers; i++ {
			kc := kcfg
			kc.Opts = newSrvOpts()
			if cfg.Scenario == "straggler" && i == 0 {
				kc.Service = 8 * serveService
			}
			kv, err := serve.NewKVServer(c.Nodes[i], core.Key(5000+i), kc)
			if err != nil {
				return res, err
			}
			addrs[i] = kv.Addr()
			c.Nodes[i].Spawn("serve-kv", func(p *sim.Proc) { kv.Serve(p, stopFn) })
		}
		makeWorkload = func(ci int, node *hostos.Node, copts rpc.Options) (serve.Workload, error) {
			wc := wcfg
			wc.ClientID = uint64(ci)
			krng := serve.DeriveRNG(cfg.Seed, 0x20000+uint64(ci))
			if cfg.Scenario == "hotkey" {
				wc.Keys = serve.NewHotKeys(serveKeys, 1, 0.5, krng)
			} else {
				wc.Keys = serve.NewUniformKeys(serveKeys, krng)
			}
			return serve.NewKVWorkload(node, addrs, wc, copts,
				serve.DeriveRNG(cfg.Seed, 0x30000+uint64(ci)))
		}
	}

	// Scenario environment: fault churn and NI-frame interference ride on
	// top of the baseline workload.
	if cfg.Scenario == "faultchurn" {
		// The serving tier survives; clients churn.
		applyChaosPlan(c, serve.DeriveRNG(cfg.Seed, 0xFA177), 24,
			serveWarmup+serveWindow+serveDrain, 15*sim.Millisecond, clientBase)
	}
	if cfg.Scenario == "interference" {
		if err := serveNoiseTenant(c, cfg, stopFn); err != nil {
			return res, err
		}
	}

	// Open-loop clients, spread across the non-serving hosts (and shards).
	perClient := res.Capacity * cfg.Factor / float64(cfg.Clients)
	measureFrom := sim.Time(0).Add(serveWarmup)
	measureTo := measureFrom.Add(serveWindow)
	slos := make([]*serve.SLO, cfg.Clients)
	for ci := 0; ci < cfg.Clients; ci++ {
		node := c.Nodes[clientBase+(ci*(cfg.Hosts-clientBase))/cfg.Clients]
		slo := serve.NewSLO()
		slos[ci] = slo
		var arr serve.Arrival
		arng := serve.DeriveRNG(cfg.Seed, 0x10000+uint64(ci))
		switch cfg.Scenario {
		case "mmpp":
			arr = serve.NewMMPP2(perClient/2, 3*perClient, 20*sim.Millisecond, 5*sim.Millisecond, arng)
		case "diurnal":
			arr = serve.NewDiurnal(perClient/3, 5*perClient/3, (serveWarmup+serveWindow)/2, arng)
		default:
			arr = serve.NewPoisson(perClient, arng)
		}
		node.Spawn("serve-client", func(p *sim.Proc) {
			copts := rpc.Options{NoBreaker: cfg.Ablate}
			w, err := makeWorkload(ci, node, copts)
			if err != nil {
				return
			}
			ccfg := serve.ClientConfig{
				Arr:         arr,
				Deadline:    serveDeadline,
				MaxOut:      serveMaxOut,
				Stop:        measureTo,
				MeasureFrom: measureFrom,
				MeasureTo:   measureTo,
				Drain:       serveDrain,
			}
			if node.Obs != nil {
				ccfg.Tracer = node.Obs.T
				ccfg.TraceNode = int(node.ID)
			}
			serve.RunClient(p, w, ccfg, slo)
		})
	}

	c.RunFor(serveWarmup + serveWindow + serveDrain + 10*sim.Millisecond)
	stop = true
	c.RunFor(20 * sim.Millisecond)

	total := serve.NewSLO()
	for _, s := range slos {
		total.Merge(s)
	}
	res.SLO = total
	for _, m := range srvMetrics {
		// Admission rejections (queue-full NACKs) plus stale-deadline drops —
		// everything a server refused rather than served.
		res.SrvShed += m.Get("overload_nacks") + m.Get("shed")
	}
	for _, gw := range gws {
		res.Hedges += gw.Hedges
		res.HedgeWins += gw.HedgeWins
	}
	if cfg.TraceSample > 0 {
		// Account for every started flight (a crash can strand one open),
		// then stitch the per-shard arenas into one deterministic timeline.
		c.SweepOpenFlights("run-end")
		res.Flights = c.MergedFlights()
		res.Attr = obs.Attribute(res.Flights, 3)
		res.Tracers = c.Tracers()
		res.ShardOf = c.ShardOfNode
	}
	return res, nil
}

// serveNoiseTenant is the interference scenario's background load: a vnet
// tenant placing more endpoints on each serving node's NI than it has
// frames, echoing in bursts so the segment driver keeps churning the
// serving endpoint out of its frame — §5 overcommit turned into tail
// latency on a co-resident tenant.
func serveNoiseTenant(c *hostos.Cluster, cfg serveConfig, stop func() bool) error {
	const perNode = 6 // noise endpoints per serving node (8 frames/NI)
	mgr := vnet.NewManager(c, 2)
	tn, err := mgr.CreateTenant("noise", 2*perNode*cfg.Servers, 1)
	if err != nil {
		return err
	}
	nw, err := tn.CreateNetwork("bg")
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Servers; i++ {
		peer := cfg.Hosts - 1 - i
		if err := tn.AddNIC(i); err != nil {
			return err
		}
		if err := tn.AddNIC(peer); err != nil {
			return err
		}
		for j := 0; j < perNode; j++ {
			cep, err := nw.CreateEndpoint(fmt.Sprintf("c%d-%d", i, j), i)
			if err != nil {
				return err
			}
			sep, err := nw.CreateEndpoint(fmt.Sprintf("s%d-%d", i, j), peer)
			if err != nil {
				return err
			}
			c.Nodes[i].Spawn("serve-noise", func(p *sim.Proc) {
				for !stop() {
					if cep.Echo(p, sep, 4) != nil {
						return
					}
					p.Sleep(2 * sim.Millisecond)
				}
			})
		}
	}
	return nil
}
