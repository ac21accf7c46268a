// Package bench contains the workload harnesses that regenerate the paper's
// evaluation: the client/server contention experiments of §6.4 (Figs. 6-7),
// the time-shared parallel workloads of §6.3, and the dedicated-application
// results of §6.2 (Linpack). Each harness builds a fresh simulated cluster,
// runs a warm-up, measures a steady-state window, and reports the same
// quantities the paper plots.
package bench

import (
	"fmt"
	"io"
	"strings"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// serverMode is the §6.4 server configuration.
type serverMode int

const (
	// modeOneVN: every client maps to one shared server endpoint (a single
	// virtual network).
	modeOneVN serverMode = iota
	// modeST: one server endpoint per client, a single server thread polling
	// all of them.
	modeST
	// modeMT: one server endpoint per client, one event-driven server thread
	// per endpoint.
	modeMT
)

// Handler indices for the workload.
const (
	hReq = 1
	hRep = 2
)

// A contention run measures csWindow of steady state after csWarmup.
const (
	csWarmup = 200 * sim.Millisecond
	csWindow = 500 * sim.Millisecond
)

// csConfig parameterizes one contention run.
type csConfig struct {
	Clients  int
	Mode     serverMode
	Frames   int // server NI endpoint frames (8 or 96)
	MsgBytes int // 0 = small request; 8192 = bulk (Fig. 7)
	Seed     int64
	// DisableHostRW reproduces the paper's original design (§6.4.1).
	DisableHostRW bool
	// Policy selects the replacement policy (ablation).
	Policy hostos.ReplacementPolicy
	// Channels overrides the logical channel count (ablation; 0 = default).
	Channels int
	// HandlerWork is the server's per-request processing time (the paper's
	// server "processes requests"; default 6 us).
	HandlerWork sim.Duration
}

// csResult is what Figs. 6 and 7 plot.
type csResult struct {
	PerClient     []float64 // requests served per second, per client
	AggregateMsgs float64   // total requests/s at the server
	AggregateMBps float64   // payload MB/s at the server (bulk runs)
	RemapsPerSec  float64   // endpoint re-mappings per second at the server
	// RemapTimeline is the per-decile remap rate across the window,
	// showing the steady state the paper reports (200-300/s sustained).
	RemapTimeline []float64
	RTT           *obs.Hist
}

// runClientServer executes one §6.4 configuration and returns its steady
// state measurements. The server runs on node 0; client i runs dedicated on
// node i+1 (as in the paper, every process has its own node).
func runClientServer(cfg csConfig) csResult {
	if cfg.HandlerWork == 0 {
		cfg.HandlerWork = 6 * sim.Microsecond
	}
	ccfg := hostos.DefaultClusterConfig()
	ccfg.NIC.Frames = cfg.Frames
	if cfg.Channels > 0 {
		ccfg.NIC.Channels = cfg.Channels
	}
	ccfg.OS.DisableHostRW = cfg.DisableHostRW
	ccfg.OS.Policy = cfg.Policy
	cl := hostos.NewCluster(cfg.Seed+1, cfg.Clients+1, ccfg)
	defer cl.Shutdown()

	server := cl.Nodes[0]
	nEPs := cfg.Clients
	if cfg.Mode == modeOneVN {
		nEPs = 1
	}

	// Server endpoints. In MT mode each endpoint gets its own bundle so
	// its thread sleeps and wakes independently.
	srvEPs := make([]*core.Endpoint, nEPs)
	var srvBundles []*core.Bundle
	for i := range srvEPs {
		if i == 0 || cfg.Mode == modeMT {
			srvBundles = append(srvBundles, core.Attach(server))
		}
		srvEPs[i], _ = srvBundles[len(srvBundles)-1].NewEndpoint(core.Key(1000+i), cfg.Clients+1)
	}

	// Client endpoints, one per client node.
	cliEPs := make([]*core.Endpoint, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		b := core.Attach(cl.Nodes[i+1])
		cliEPs[i], _ = b.NewEndpoint(core.Key(2000+i), 4)
	}

	// Wire translations: client i talks to its server endpoint (or the
	// shared one); the server endpoint maps each of its clients back.
	for i, cep := range cliEPs {
		si, slot := i, 0 // client i's server endpoint, and its slot in that endpoint's table
		if cfg.Mode == modeOneVN {
			si, slot = 0, i
		}
		cep.Map(0, srvEPs[si].Name(), core.Key(1000+si))
		srvEPs[si].Map(slot, cep.Name(), core.Key(2000+i))
	}

	// Measurement state.
	startAt := sim.Time(csWarmup)
	endAt := startAt.Add(csWindow)
	counts := make([]int64, cfg.Clients)
	rtt := obs.NewHist()

	// Server handlers: count the request (attributed to its client) and
	// reply immediately.
	nameToClient := make(map[core.EndpointName]int, cfg.Clients)
	for i, cep := range cliEPs {
		nameToClient[cep.Name()] = i
	}
	for _, sep := range srvEPs {
		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
			now := p.Now()
			if now >= startAt && now < endAt {
				if ci, ok := nameToClient[tok.Source()]; ok {
					counts[ci]++
				}
			}
			server.Compute(p, cfg.HandlerWork)
			tok.Reply(p, hRep, args)
		})
	}

	// Server threads.
	switch cfg.Mode {
	case modeMT:
		for i, sep := range srvEPs {
			b := srvBundles[i]
			sep.SetEventMask(true)
			server.Spawn(fmt.Sprintf("srv-mt%d", i), func(p *sim.Proc) {
				for {
					b.Wait(p)
					for sep.Poll(p) > 0 {
					}
				}
			})
		}
	default:
		b := srvBundles[0]
		server.Spawn("srv-st", func(p *sim.Proc) {
			for {
				if b.Poll(p) == 0 {
					p.Sleep(sim.Microsecond)
				}
			}
		})
	}

	// Clients: a continuous stream of requests; the credit window is the
	// only throttle. Each request carries its issue time so replies yield
	// the bimodal RTT distribution of §6.4.1.
	payload := make([]byte, cfg.MsgBytes)
	for i, cep := range cliEPs {
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			now := p.Now()
			if now >= startAt && now < endAt {
				rtt.Observe(now.Sub(sim.Time(args[0])))
			}
		})
		cep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, _ []byte) {})
		cl.Nodes[i+1].Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			for {
				args := [4]uint64{uint64(p.Now())}
				var err error
				if cfg.MsgBytes > 0 {
					err = cep.RequestBulk(p, 0, hReq, payload, args)
				} else {
					err = cep.Request(p, 0, hReq, args)
				}
				if err != nil {
					return
				}
				cep.Poll(p)
			}
		})
	}

	// Run warm-up + window (sampling the remap rate per decile).
	remapsBefore := int64(0)
	cl.RunUntil(startAt)
	remapsBefore = server.Driver.Remaps()
	tl := obs.NewTimeline(startAt, csWindow/10)
	prev := remapsBefore
	for i := 0; i < 10; i++ {
		cl.RunUntil(startAt.Add(csWindow * sim.Duration(i+1) / 10))
		cur := server.Driver.Remaps()
		tl.Add(cl.Now()-1, float64(cur-prev))
		prev = cur
	}
	remaps := server.Driver.Remaps() - remapsBefore

	res := csResult{
		RemapTimeline: tl.Rates(),
		PerClient:     make([]float64, cfg.Clients),
		RemapsPerSec:  float64(remaps) / csWindow.Seconds(),
		RTT:           rtt,
	}
	var total int64
	for i, c := range counts {
		res.PerClient[i] = float64(c) / csWindow.Seconds()
		total += c
	}
	res.AggregateMsgs = float64(total) / csWindow.Seconds()
	res.AggregateMBps = res.AggregateMsgs * float64(cfg.MsgBytes) / 1e6
	return res
}

// contentionRow is Fig. 6 (msgBytes 0) and Fig. 7 (msgBytes 8192).
func contentionRow(w io.Writer, p Params, msgBytes int) error {
	fig, what := "6", "small messages (msgs/s)"
	if msgBytes > 0 {
		fig, what = "7", fmt.Sprintf("%d-byte bulk (MB/s)", msgBytes)
	}
	header(w, fmt.Sprintf("Fig. %s — %s under contention", fig, what))
	fmt.Fprintf(w, "aggregate server throughput:\n%-8s", "clients")
	for _, c := range contentionConfigs {
		fmt.Fprintf(w, " %9s", c.name)
	}
	fmt.Fprintf(w, "   (remaps/s on 8-frame configs)\n")
	var perClient []string
	for _, n := range []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32} {
		agg, per := contentionLines(n, msgBytes, p.Seed)
		fmt.Fprint(w, agg)
		perClient = append(perClient, per)
	}
	fmt.Fprintf(w, "\nper-client (client 0) throughput:\n%-8s", "clients")
	for _, c := range contentionConfigs {
		fmt.Fprintf(w, " %9s", c.name)
	}
	fmt.Fprintf(w, "\n%s", strings.Join(perClient, ""))
	return nil
}

// contentionConfigs are the server configurations of Figs. 6 and 7, one
// column each.
var contentionConfigs = []struct {
	name   string
	mode   serverMode
	frames int
}{
	{"OneVN", modeOneVN, 8},
	{"ST-8", modeST, 8},
	{"ST-96", modeST, 96},
	{"MT-8", modeMT, 8},
	{"MT-96", modeMT, 96},
}

// contentionLines runs every server configuration against n clients, each
// on a fresh cluster, and returns that client count's line of the aggregate
// table (with the remap rates of the 8-frame configurations) and its line
// of the per-client table.
func contentionLines(n, msgBytes int, seed int64) (agg, per string) {
	agg, per = fmt.Sprintf("%-8d", n), fmt.Sprintf("%-8d", n)
	remapNote := ""
	for _, c := range contentionConfigs {
		res := runClientServer(csConfig{
			Clients: n, Mode: c.mode, Frames: c.frames, MsgBytes: msgBytes, Seed: seed,
		})
		v := res.AggregateMsgs
		if msgBytes > 0 {
			v = res.AggregateMBps
		}
		agg += fmt.Sprintf(" %9.0f", v)
		per += fmt.Sprintf(" %9.0f", res.PerClient[0])
		if c.frames == 8 && res.RemapsPerSec > 0 {
			remapNote += fmt.Sprintf(" %s:%.0f", c.name, res.RemapsPerSec)
		}
	}
	return agg + "  " + remapNote + "\n", per + "\n"
}

func overcommitRow(w io.Writer, p Params) error {
	header(w, "§6.4.1 — overcommitting NI resources (32 clients, 8 frames)")
	const clients = 32
	res := runClientServer(csConfig{Clients: clients, Mode: modeMT, Frames: 8, Seed: p.Seed})
	peak := runClientServer(csConfig{Clients: 1, Mode: modeOneVN, Frames: 8, Seed: p.Seed})
	frac := res.AggregateMsgs / peak.AggregateMsgs * 100
	fmt.Fprintf(w, "overcommit %d:8 — aggregate %.0f msgs/s = %.0f%% of peak (paper: 50-75%%)\n",
		clients, res.AggregateMsgs, frac)
	fmt.Fprintf(w, "endpoint re-mappings: %.0f/s (paper: 200-300/s)\n", res.RemapsPerSec)
	fmt.Fprintf(w, "remap rate per window decile: %v (sustained, not a transient)\n", res.RemapTimeline)
	fast, fm, sm := res.RTT.BimodalSplit(2 * sim.Millisecond)
	fmt.Fprintf(w, "client RTTs are bimodal: %.0f%% fast (mean %v), %.0f%% slow (mean %v)\n",
		fast*100, fm, (1-fast)*100, sm)
	fmt.Fprintln(w, strings.TrimRight(res.RTT.Buckets(12), "\n"))
	return nil
}
