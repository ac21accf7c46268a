// Command vnbench regenerates every table and figure of the paper's
// evaluation (§6) on the simulated cluster. Each subcommand prints the rows
// or series the paper reports:
//
//	vnbench logp              Fig. 3  LogP parameters, AM vs GAM
//	vnbench bandwidth         Fig. 4  transfer bandwidth vs message size
//	vnbench npb               Fig. 5  NPB speedups on SP-2 / NOW / Origin 2000
//	vnbench contention-small  Fig. 6  small-message throughput under contention
//	vnbench contention-bulk   Fig. 7  8 KB bulk throughput under contention
//	vnbench linpack           §6.2    Linpack GFLOPS on 100 nodes
//	vnbench timeshare         §6.3    time-shared parallel applications
//	vnbench overcommit        §6.4.1  8:1 overcommit: remap rate, bimodal RTTs
//	vnbench ablations         §6.4.1  design-choice ablations
//	vnbench migrate           ext.    live endpoint migration: blackout, loss=0
//	vnbench faults            ext.    fault injection + automated recovery
//	vnbench simperf           ext.    event-engine self-benchmark
//	vnbench allreduce         ext.    collective algorithm sweep + SGD overlap
//	vnbench breakdown         §4      per-stage latency decomposition via tracing
//	vnbench tenants           ext.    multi-tenant metered WRR shares under overcommit
//	vnbench degrade           ext.    graceful degradation: goodput vs offered load
//	vnbench serve             ext.    serving-scale workloads: open-loop SLO curves
//	vnbench all               everything above
//
// Flags may also follow the subcommand (`vnbench serve -scenario hotkey
// -shards 4`); everything after the first positional argument is re-parsed
// into the same flag set.
//
// Use -quick for smaller client sweeps and shorter windows. The golden
// results_*.txt files capture stdout only; simperf's machine-dependent
// wall-clock section goes to stderr. -cpuprofile/-memprofile write pprof
// profiles for diagnosing simulator-performance regressions. -traceout
// exports the breakdown experiment's short-AM phase as Chrome trace-event
// JSON (load it at https://ui.perfetto.dev); -metrics prints the unified
// registry's dashboard after instrumented experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"virtnet/internal/bench"
	"virtnet/internal/coll"
	"virtnet/internal/core"
	"virtnet/internal/gam"
	"virtnet/internal/hostos"
	"virtnet/internal/logp"
	"virtnet/internal/migrate"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/npb"
	"virtnet/internal/sim"
)

var (
	quick      = flag.Bool("quick", false, "smaller sweeps and shorter windows")
	seed       = flag.Int64("seed", 1, "simulation seed")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	traceout   = flag.String("traceout", "", "write a Perfetto-compatible trace of the breakdown short-AM phase to this file")
	metrics    = flag.Bool("metrics", false, "print metrics-registry dashboards after instrumented experiments")
	shards     = flag.Int("shards", 1, "simperf/serve: engine shards (1 = one shard, no barriers; serve defaults to 4 when unset)")
	hosts      = flag.Int("hosts", 0, "simperf/serve: cluster size override (0 = the golden sections)")
	sweep      = flag.Bool("sweep", false, "simperf: shard-scaling sweep on the 1,024-host workload (stderr, machine-dependent)")
	scenario   = flag.String("scenario", "golden", "serve: scenario to sweep ('golden' = the committed set, 'list' prints all)")
)

// experiments is the registration table: one row per subcommand, in
// "vnbench all" execution order. A new experiment plugs in here and
// inherits the shared flag/profiling plumbing — no per-command wiring.
var experiments = []struct {
	name string
	doc  string
	run  func()
}{
	{"logp", "Fig. 3  LogP parameters, AM vs GAM", runLogP},
	{"bandwidth", "Fig. 4  transfer bandwidth vs message size", runBandwidth},
	{"npb", "Fig. 5  NPB speedups on SP-2 / NOW / Origin 2000", runNPB},
	{"contention-small", "Fig. 6  small-message throughput under contention", func() { runContention(0) }},
	{"contention-bulk", "Fig. 7  8 KB bulk throughput under contention", func() { runContention(8192) }},
	{"linpack", "§6.2    Linpack GFLOPS on 100 nodes", runLinpack},
	{"timeshare", "§6.3    time-shared parallel applications", runTimeshare},
	{"overcommit", "§6.4.1  8:1 overcommit: remap rate, bimodal RTTs", runOvercommit},
	{"ablations", "§6.4.1  design-choice ablations", runAblations},
	{"sensitivity", "§6.1    LogP sensitivity: overhead vs gap", runSensitivity},
	{"migrate", "ext.    live endpoint migration: blackout, loss=0", runMigrate},
	{"faults", "ext.    fault injection + automated recovery", runFaults},
	{"simperf", "ext.    event-engine self-benchmark", runSimPerf},
	{"allreduce", "ext.    collective algorithm sweep + SGD overlap", runAllreduce},
	{"breakdown", "§4      per-stage latency decomposition via tracing", runBreakdown},
	{"tenants", "ext.    multi-tenant metered WRR shares under overcommit", runTenants},
	{"degrade", "ext.    graceful degradation: goodput vs offered load", runDegrade},
	{"serve", "ext.    serving-scale workloads: open-loop SLO curves", runServe},
	{"tailat", "ext.    tail-latency attribution over request trace trees", runTailat},
}

// flagSet reports whether the named flag was set explicitly (before or
// after the subcommand).
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
		// The flag package stops at the first positional argument, so
		// trailing flags (`vnbench serve -scenario hotkey`) need a second
		// parse into the same flag set.
		if flag.NArg() > 1 {
			flag.CommandLine.Parse(flag.Args()[1:])
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	if cmd == "all" {
		for _, ex := range experiments {
			ex.run()
		}
		return
	}
	for _, ex := range experiments {
		if ex.name == cmd {
			ex.run()
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown command %q; available:\n", cmd)
	for _, ex := range experiments {
		fmt.Fprintf(os.Stderr, "  %-17s %s\n", ex.name, ex.doc)
	}
	os.Exit(2)
}

func header(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// amPair builds a dedicated two-node virtual network for microbenchmarks.
func amPair(s int64) (*hostos.Cluster, logp.Station, logp.Station) {
	c := hostos.NewCluster(s, 2, hostos.DefaultClusterConfig())
	b0 := core.Attach(c.Nodes[0])
	b1 := core.Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(1, 4)
	e1, _ := b1.NewEndpoint(2, 4)
	e0.Map(0, e1.Name(), 2)
	e1.Map(0, e0.Name(), 1)
	return c, logp.AMStation{EP: e0, Idx: 0}, logp.AMStation{EP: e1, Idx: 0}
}

func gamPair(s int64) (*sim.Engine, *gam.World, logp.Station, logp.Station) {
	e := sim.NewEngine(s)
	net := netsim.New(e, netsim.DefaultConfig(), 2)
	w := gam.New(e, net, gam.DefaultConfig())
	return e, w, logp.GAMStation{N: w.Node(0), Dst: 1}, logp.GAMStation{N: w.Node(1), Dst: 0}
}

func runLogP() {
	header("Fig. 3 — LogP characterization (us)")
	iters := 200
	if *quick {
		iters = 50
	}
	c, amc, ams := amPair(*seed)
	am := logp.Measure(c.E, amc, ams, iters)
	c.Shutdown()
	e, w, gc, gs := gamPair(*seed)
	gm := logp.Measure(e, gc, gs, iters)
	w.Stop()
	e.Shutdown()

	fmt.Printf("%-6s %8s %8s %8s %8s %10s\n", "layer", "Os", "Or", "L", "g", "RTT")
	fmt.Printf("%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "AM",
		am.Os.Micros(), am.Or.Micros(), am.L.Micros(), am.G.Micros(), am.RTT.Micros())
	fmt.Printf("%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "GAM",
		gm.Os.Micros(), gm.Or.Micros(), gm.L.Micros(), gm.G.Micros(), gm.RTT.Micros())
	fmt.Printf("ratios: gap x%.2f (paper 2.21), RTT x%.2f (paper 1.23)\n",
		float64(am.G)/float64(gm.G), float64(am.RTT)/float64(gm.RTT))
}

func runBandwidth() {
	header("Fig. 4 — transfer bandwidth (MB/s) and bulk round-trip time")
	count := 200
	if *quick {
		count = 60
	}
	sizes := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	fmt.Printf("%8s %10s %10s\n", "bytes", "AM", "GAM")
	for _, sz := range sizes {
		c, amc, ams := amPair(*seed)
		amBW := logp.Bandwidth(c.E, amc, ams, sz, count)
		c.Shutdown()
		e, w, gc, gs := gamPair(*seed)
		gBW := logp.Bandwidth(e, gc, gs, sz, count)
		w.Stop()
		e.Shutdown()
		fmt.Printf("%8d %10.1f %10.1f\n", sz, amBW, gBW)
	}
	fmt.Printf("hardware limits: SBUS write DMA 46.8 MB/s (paper: AM 43.9, GAM 38 at 8 KB)\n")

	fmt.Printf("\nround-trip time for n-byte echo (paper fit: 0.1112*n + 61.02 us):\n")
	var pts [][2]float64
	for _, sz := range []int{128, 1024, 4096, 8192} {
		c, amc, ams := amPair(*seed)
		rtt := logp.RTTBulk(c.E, amc, ams, sz, 10)
		c.Shutdown()
		fmt.Printf("%8d %10.1f us\n", sz, rtt.Micros())
		pts = append(pts, [2]float64{float64(sz), rtt.Micros()})
	}
	slope, icept := fitLine(pts)
	fmt.Printf("fit: %.4f*n + %.2f us\n", slope, icept)
}

func fitLine(pts [][2]float64) (slope, intercept float64) {
	n := float64(len(pts))
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
		sxx += p[0] * p[0]
		sxy += p[0] * p[1]
	}
	slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	intercept = (sy - slope*sx) / n
	return
}

func runNPB() {
	header("Fig. 5 — NPB speedups (constant problem size)")
	ps := []int{1, 2, 4, 8, 16, 32}
	if *quick {
		ps = []int{1, 2, 4, 8}
	}
	machines := []npb.Machine{npb.SP2(), npb.NewNOW(*seed), npb.Origin2000()}
	for _, m := range machines {
		fmt.Printf("\n%s:\n%-6s", m.Name(), "kernel")
		for _, p := range ps {
			fmt.Printf(" %7s", fmt.Sprintf("P=%d", p))
		}
		fmt.Println()
		for _, k := range npb.Kernels() {
			if *quick && (k.Name == "BT" || k.Name == "SP") {
				continue
			}
			s, ok := npb.Speedup(m, k, ps)
			if !ok {
				fmt.Printf("%-6s failed\n", k.Name)
				continue
			}
			fmt.Printf("%-6s", k.Name)
			for _, v := range s {
				fmt.Printf(" %7.1f", v)
			}
			fmt.Println()
		}
	}
	fmt.Println("\n(ideal = P; FT and IS are bisection-limited on the NOW, §6.2)")
}

func csWindow() (sim.Duration, sim.Duration) {
	if *quick {
		return 150 * sim.Millisecond, 300 * sim.Millisecond
	}
	return 200 * sim.Millisecond, 500 * sim.Millisecond
}

func runContention(msgBytes int) {
	what := "small messages (msgs/s)"
	if msgBytes > 0 {
		what = fmt.Sprintf("%d-byte bulk (MB/s)", msgBytes)
	}
	header(fmt.Sprintf("Fig. %s — %s under contention", map[int]string{0: "6", 8192: "7"}[msgBytes], what))
	clients := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	if *quick {
		clients = []int{1, 2, 3, 4, 8, 12}
	}
	warm, win := csWindow()
	type cfgRow struct {
		name   string
		mode   bench.ServerMode
		frames int
	}
	rows := []cfgRow{
		{"OneVN", bench.OneVN, 8},
		{"ST-8", bench.ST, 8},
		{"ST-96", bench.ST, 96},
		{"MT-8", bench.MT, 8},
		{"MT-96", bench.MT, 96},
	}
	fmt.Printf("aggregate server throughput:\n%-8s", "clients")
	for _, r := range rows {
		fmt.Printf(" %9s", r.name)
	}
	fmt.Printf("   (remaps/s on 8-frame configs)\n")
	perClient := map[string][]float64{}
	for _, n := range clients {
		fmt.Printf("%-8d", n)
		remapNote := ""
		for _, r := range rows {
			res := bench.RunClientServer(bench.CSConfig{
				Clients: n, Mode: r.mode, Frames: r.frames, MsgBytes: msgBytes,
				Warmup: warm, Window: win, Seed: *seed,
			})
			v := res.AggregateMsgs
			if msgBytes > 0 {
				v = res.AggregateMBps
			}
			fmt.Printf(" %9.0f", v)
			perClient[r.name] = append(perClient[r.name], res.PerClient[0])
			if r.frames == 8 && res.RemapsPerSec > 0 {
				remapNote += fmt.Sprintf(" %s:%.0f", r.name, res.RemapsPerSec)
			}
		}
		fmt.Printf("  %s\n", remapNote)
	}
	fmt.Printf("\nper-client (client 0) throughput:\n%-8s", "clients")
	for _, r := range rows {
		fmt.Printf(" %9s", r.name)
	}
	fmt.Println()
	for i, n := range clients {
		fmt.Printf("%-8d", n)
		for _, r := range rows {
			fmt.Printf(" %9.0f", perClient[r.name][i])
		}
		fmt.Println()
	}
}

func runLinpack() {
	header("§6.2 — Linpack on the dedicated cluster")
	cfg := bench.DefaultLinpackConfig()
	cfg.Seed = *seed
	if *quick {
		cfg.Nodes, cfg.N = 25, 2048
	}
	res, ok := bench.RunLinpack(cfg)
	if !ok {
		fmt.Println("linpack did not complete")
		return
	}
	fmt.Printf("nodes=%d n=%d nb=%d: %.2f GFLOPS in %v (%.0f%% of %0.1f GF peak)\n",
		cfg.Nodes, cfg.N, cfg.NB, res.GFlops, res.Time,
		res.Efficiency*100, float64(cfg.Nodes)*cfg.RateFlops/1e9)
	fmt.Printf("(paper: 10.14 GFLOPS on 100 nodes, Top-500 #315 in June 1997)\n")
}

func runTimeshare() {
	header("§6.3 — time-shared parallel applications")
	nodes, iters := 16, 40
	if *quick {
		nodes, iters = 8, 20
	}
	for _, imb := range []float64{0, 1.0} {
		res, ok := bench.RunTimeshare(bench.TimeshareConfig{
			Nodes: nodes, Apps: 2, Iters: iters,
			Compute: 2 * sim.Millisecond, MsgBytes: 2048,
			Imbalance: imb, Seed: *seed,
		})
		if !ok {
			fmt.Println("timeshare run failed")
			return
		}
		kind := "balanced"
		if imb > 0 {
			kind = "imbalanced"
		}
		fmt.Printf("%-11s shared=%v sequential=%v ratio=%.3f (paper: <= 1.15; gains with imbalance)\n",
			kind, res.SharedMakespan, res.SequentialTotal, res.Ratio)
		fmt.Printf("            comm/rank: shared=%v seq=%v; barrier wait: shared=%v seq=%v\n",
			res.SharedCommMean, res.SeqCommMean, res.SharedSyncMean, res.SeqSyncMean)
	}
}

func runOvercommit() {
	header("§6.4.1 — overcommitting NI resources (32 clients, 8 frames)")
	clients := 32
	if *quick {
		clients = 16
	}
	warm, win := csWindow()
	res := bench.RunClientServer(bench.CSConfig{
		Clients: clients, Mode: bench.MT, Frames: 8,
		Warmup: warm, Window: win, Seed: *seed,
	})
	peak := bench.RunClientServer(bench.CSConfig{
		Clients: 1, Mode: bench.OneVN, Frames: 8,
		Warmup: warm, Window: win, Seed: *seed,
	})
	frac := res.AggregateMsgs / peak.AggregateMsgs * 100
	fmt.Printf("overcommit %d:8 — aggregate %.0f msgs/s = %.0f%% of peak (paper: 50-75%%)\n",
		clients, res.AggregateMsgs, frac)
	fmt.Printf("endpoint re-mappings: %.0f/s (paper: 200-300/s)\n", res.RemapsPerSec)
	fmt.Printf("remap rate per window decile: %v (sustained, not a transient)\n", res.RemapTimeline)
	fast, fm, sm := res.RTT.BimodalSplit(2 * sim.Millisecond)
	fmt.Printf("client RTTs are bimodal: %.0f%% fast (mean %v), %.0f%% slow (mean %v)\n",
		fast*100, fm, (1-fast)*100, sm)
	fmt.Println(strings.TrimRight(res.RTT.Buckets(12), "\n"))
}

func runAblations() {
	header("§6.4.1 — design ablations")
	warm, win := csWindow()
	n := 24
	if *quick {
		n = 12
	}

	// A slower per-request server (40 us) lets receive queues back up, so
	// endpoints are evicted with work pending — the §6.4.1 precondition for
	// the single-threaded server writing replies into non-resident
	// endpoints.
	hw := 40 * sim.Microsecond
	base := bench.RunClientServer(bench.CSConfig{Clients: n, Mode: bench.ST, Frames: 8,
		Warmup: warm, Window: win, Seed: *seed, HandlerWork: hw})
	noRW := bench.RunClientServer(bench.CSConfig{Clients: n, Mode: bench.ST, Frames: 8,
		Warmup: warm, Window: win, Seed: *seed, HandlerWork: hw, DisableHostRW: true})
	fmt.Printf("on-host r/w state (ST, %d clients, 8 frames, 40us handler):\n", n)
	fmt.Printf("  with (paper design):    %8.0f msgs/s, %4.0f remaps/s\n", base.AggregateMsgs, base.RemapsPerSec)
	fmt.Printf("  without (orig. design): %8.0f msgs/s, %4.0f remaps/s  (paper: ST falls to a few %% of peak)\n",
		noRW.AggregateMsgs, noRW.RemapsPerSec)

	fmt.Printf("replacement policy (ST, %d clients, 8 frames):\n", n)
	for _, pol := range []hostos.ReplacementPolicy{hostos.ReplaceRandom, hostos.ReplaceLRU, hostos.ReplaceFIFO} {
		r := bench.RunClientServer(bench.CSConfig{Clients: n, Mode: bench.ST, Frames: 8,
			Warmup: warm, Window: win, Seed: *seed, Policy: pol})
		fmt.Printf("  %-7s %8.0f msgs/s, %4.0f remaps/s\n", pol, r.AggregateMsgs, r.RemapsPerSec)
	}

	fmt.Printf("logical channels per NI pair (single-client 8 KB stream):\n")
	for _, ch := range []int{1, 2, 4, 16} {
		r := bench.RunClientServer(bench.CSConfig{Clients: 1, Mode: bench.OneVN, Frames: 8,
			MsgBytes: 8192, Warmup: warm, Window: win, Seed: *seed, Channels: ch})
		fmt.Printf("  %2d channels: %6.1f MB/s  (stop-and-wait masking of ack latency)\n", ch, r.AggregateMBps)
	}

	fmt.Printf("loiter bound (bulk hog + ping endpoint sharing one NI):\n")
	on, ok1 := bench.RunLoiterAblation(false, *seed)
	off, ok2 := bench.RunLoiterAblation(true, *seed)
	if !ok1 || !ok2 {
		fmt.Println("  loiter ablation failed")
		return
	}
	fmt.Printf("  bounded (64 msgs/4 ms): hog %5.1f MB/s, %d pings, p50 %v p99 %v\n",
		on.BulkMBps, on.PingCount, on.PingP50, on.PingP99)
	fmt.Printf("  unbounded:              hog %5.1f MB/s, %d pings, p50 %v p99 %v\n",
		off.BulkMBps, off.PingCount, off.PingP50, off.PingP99)
}

// runMigrate demonstrates live endpoint migration (extension; DESIGN.md S20):
// an echo server endpoint hops around the cluster while three clients keep a
// continuous 16-byte request stream on it. Reported per move: the blackout
// (freeze at the source to install at the destination) and the transfer
// size. Reported overall: exactly-once accounting — every request must get
// exactly one reply, with zero losses, zero duplicates, and zero user-level
// return-to-sender events (redirects are transparent).
func runMigrate() {
	header("live endpoint migration — blackout under continuous 16 B request load")
	const (
		serverKey = core.Key(77)
		hReq      = 1
		hRep      = 2
	)
	nPer := 2000
	hops := []int{1, 2, 3, 0}
	if *quick {
		nPer = 600
		hops = []int{1, 0}
	}
	c := hostos.NewCluster(*seed, 4, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	svc, err := migrate.NewService(c)
	if err != nil {
		fmt.Printf("migration service: %v\n", err)
		return
	}

	sb := core.Attach(c.Nodes[0])
	sb.SetResolver(svc.Dir)
	server, err := sb.NewEndpoint(serverKey, 8)
	if err != nil {
		fmt.Printf("server endpoint: %v\n", err)
		return
	}
	served := 0
	server.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		served++
		if err := tok.Reply(p, hRep, args); err != nil {
			fmt.Printf("server reply: %v\n", err)
		}
	})
	cur := server
	svc.Manage(server, func(n *core.Endpoint) { cur = n })
	epID := server.Segment().EP.ID
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for {
			cur.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})

	// Three clients on nodes 1-3 stream 16-byte requests (two uint64 words)
	// through the whole sequence of moves.
	type clientStat struct {
		ep      *core.Endpoint
		replies map[uint64]int
		returns int
		done    bool
		lastAt  sim.Time
		maxGap  sim.Duration
	}
	clients := make([]*clientStat, 3)
	for i := range clients {
		node := i + 1
		b := core.Attach(c.Nodes[node])
		b.SetResolver(svc.Dir)
		ep, err := b.NewEndpoint(core.Key(1000+node), 8)
		if err != nil {
			fmt.Printf("client endpoint: %v\n", err)
			return
		}
		cs := &clientStat{ep: ep, replies: make(map[uint64]int)}
		clients[i] = cs
		ep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			if cs.lastAt != 0 {
				if gap := p.Now().Sub(cs.lastAt); gap > cs.maxGap {
					cs.maxGap = gap
				}
			}
			cs.lastAt = p.Now()
			cs.replies[args[0]]++
		})
		ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, _ []byte) {
			cs.returns++
		})
		if err := ep.Map(0, server.Name(), serverKey); err != nil {
			fmt.Printf("client map: %v\n", err)
			return
		}
		c.Nodes[node].Spawn("client", func(p *sim.Proc) {
			for id := 1; id <= nPer; id++ {
				if err := cs.ep.Request(p, 0, hReq, [4]uint64{uint64(id), uint64(node)}); err != nil {
					fmt.Printf("client %d request: %v\n", node, err)
					return
				}
				p.Sleep(40 * sim.Microsecond)
			}
			for len(cs.replies) < nPer {
				cs.ep.Poll(p)
				p.Sleep(10 * sim.Microsecond)
			}
			cs.done = true
		})
	}

	// The mover walks the endpoint around the cluster mid-stream.
	type moveRec struct {
		from, to netsim.NodeID
		stats    *migrate.MoveStats
	}
	var moves []moveRec
	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		for _, dst := range hops {
			p.Sleep(10 * sim.Millisecond)
			h, _ := svc.Endpoint(epID)
			from := h.Bundle().Node.ID
			if from == netsim.NodeID(dst) {
				continue
			}
			s, err := svc.Move(p, h, netsim.NodeID(dst))
			if err != nil {
				fmt.Printf("move %d->%d: %v\n", from, dst, err)
				return
			}
			moves = append(moves, moveRec{from: from, to: netsim.NodeID(dst), stats: s})
		}
	})

	deadline := sim.Time(0).Add(60 * sim.Second)
	for c.E.Now() < deadline {
		c.E.RunFor(50 * sim.Millisecond)
		alldone := true
		for _, cs := range clients {
			alldone = alldone && cs.done
		}
		if alldone && len(moves) >= len(hops) {
			break
		}
	}

	fmt.Printf("%d moves under load (3 clients x %d requests):\n", len(moves), nPer)
	fmt.Printf("%-6s %-8s %12s %10s %8s\n", "move", "route", "blackout", "bytes", "chunks")
	for i, m := range moves {
		fmt.Printf("%-6d %d -> %-4d %12v %10d %8d\n",
			i+1, m.from, m.to, m.stats.Blackout, m.stats.Bytes, m.stats.Chunks)
	}

	sent := 3 * nPer
	replied, lost, dup, returns := 0, 0, 0, 0
	var redirects, refreshes int64
	var maxGap sim.Duration
	for _, cs := range clients {
		if !cs.done {
			fmt.Println("FAIL: a client did not complete (lost messages or deadlock)")
		}
		for id := 1; id <= nPer; id++ {
			n := cs.replies[uint64(id)]
			if n >= 1 {
				replied++
			}
			if n == 0 {
				lost++
			}
			if n > 1 {
				dup += n - 1
			}
		}
		returns += cs.returns
		redirects += cs.ep.Stats.Redirects
		refreshes += cs.ep.Stats.Refreshes
		if cs.maxGap > maxGap {
			maxGap = cs.maxGap
		}
	}
	fmt.Printf("exactly-once: %d sent, %d replied, %d served — lost %d, duplicates %d (both must be 0)\n",
		sent, replied, served, lost, dup)
	fmt.Printf("redirects absorbed by the library: %d (%d translation refreshes); user-level returns: %d\n",
		redirects, refreshes, returns)
	fmt.Printf("directory: %d publishes, %d resolves; name version now %d\n",
		svc.Dir.C.Get("dir.publish"), svc.Dir.C.Get("dir.resolve"), svc.Dir.Version(epID))
	fmt.Printf("worst client-observed service gap: %v (covers blackout + redirect retries)\n", maxGap)
}

// bigSimPerf is the 1,024-host scaling workload: 512 pairs on the
// three-level fat tree, ~25% of the streams crossing leaves (and shards).
func bigSimPerf(nshards int) bench.SimPerfConfig {
	cfg := bench.SimPerfConfig{Hosts: 1024, Pairs: 512, Msgs: 60, Seed: *seed, Shards: nshards}
	if *quick {
		cfg.Msgs = 15
	}
	return cfg
}

// printSimPerf prints one simperf section: deterministic virtual-time
// metrics to stdout (golden), wall-clock rates to stderr.
func printSimPerf(cfg bench.SimPerfConfig, res bench.SimPerfResult) {
	msgs := float64(res.Replied)
	nodes := 2 * cfg.Pairs
	if cfg.Hosts > 0 {
		nodes = cfg.Hosts
	}
	fmt.Printf("pairs=%d nodes=%d msgs/client=%d\n", cfg.Pairs, nodes, cfg.Msgs)
	fmt.Printf("virtual: replied=%d time=%v rate=%.0f msgs/s\n",
		res.Replied, res.Virtual, res.MsgsPerSec)
	s := res.Engine
	hitRate := 0.0
	if s.PoolHits+s.PoolMisses > 0 {
		hitRate = float64(s.PoolHits) / float64(s.PoolHits+s.PoolMisses)
	}
	fmt.Printf("events: fired=%d (%.1f/msg), max pending=%d, pool hit rate=%.3f\n",
		s.Fired, float64(s.Fired)/msgs, s.MaxPending, hitRate)
	ev := float64(res.EventsRun)
	fmt.Fprintf(os.Stderr,
		"wall-clock (machine-dependent, not golden): %.3fs, %.2fM events/s, %.0f ns/event, %.1f allocs/msg, %.1f hand-offs/msg\n",
		res.Wall.Seconds(), ev/res.Wall.Seconds()/1e6,
		float64(res.Wall.Nanoseconds())/ev, float64(res.Mallocs)/msgs,
		float64(s.Handoffs)/msgs)
}

// runSimPerf is the event-engine self-benchmark (tentpole of the engine
// overhaul): client/server pairs stream small requests to completion.
// With default flags it prints the two golden sections — the original
// 16-node stream and the 1,024-host single-shard baseline — both captured
// in results_simperf.txt. -hosts/-shards run one custom section instead;
// -sweep appends a shard-scaling sweep (1/2/4/8 shards on the 1,024-host
// workload) whose wall-clock speedups go to stderr only.
func runSimPerf() {
	if *hosts != 0 || *shards != 1 {
		cfg := bench.SimPerfConfig{Pairs: 8, Msgs: 10000, Seed: *seed, Shards: *shards, Hosts: *hosts}
		if *hosts != 0 {
			cfg = bigSimPerf(*shards)
			cfg.Hosts = *hosts
			cfg.Pairs = *hosts / 2
		}
		if *quick {
			cfg.Msgs /= 4
		}
		header(fmt.Sprintf("simperf — event-engine self-benchmark (%d hosts, %d shards)",
			max(cfg.Hosts, 2*cfg.Pairs), *shards))
		printSimPerf(cfg, bench.RunSimPerf(cfg))
	} else {
		header("simperf — event-engine self-benchmark (16-node stream)")
		cfg := bench.SimPerfConfig{Pairs: 8, Msgs: 10000, Seed: *seed}
		if *quick {
			cfg.Msgs = 2000
		}
		printSimPerf(cfg, bench.RunSimPerf(cfg))

		header("simperf — 1,024-host cluster baseline (1 shard)")
		big := bigSimPerf(1)
		printSimPerf(big, bench.RunSimPerf(big))
	}
	if *sweep {
		fmt.Fprintf(os.Stderr, "shard-scaling sweep (1,024 hosts; wall-clock, machine-dependent):\n")
		base := 0.0
		for _, n := range []int{1, 2, 4, 8} {
			res := bench.RunSimPerf(bigSimPerf(n))
			evs := float64(res.EventsRun) / res.Wall.Seconds()
			if n == 1 {
				base = evs
			}
			fmt.Fprintf(os.Stderr, "  shards=%d  events/s=%.2fM  speedup=%.2fx  replied=%d\n",
				n, evs/1e6, evs/base, res.Replied)
		}
	}
}

// runAllreduce sweeps the collective engine's algorithms over vector sizes
// on the full 100-node cluster (Fig.-style table of virtual completion
// times), then runs the data-parallel SGD loop that shows bucketed gradient
// allreduce hiding behind gradient computation. Large vectors must show the
// bandwidth-optimal schedules (ring, hierarchical) beating the binomial
// reduce+bcast baseline; small vectors show the opposite, which is exactly
// what the size-based selector exploits.
func runAllreduce() {
	nodes := 100
	sizes := []int{1 << 10, 32 << 10, 1 << 20, 16 << 20}
	if *quick {
		nodes = 25
		sizes = []int{1 << 10, 32 << 10, 1 << 20}
	}
	algs := []coll.Algorithm{coll.Binomial, coll.Ring, coll.RingFlat, coll.Rabenseifner, coll.Hierarchical}
	header(fmt.Sprintf("allreduce — collective algorithm sweep (%d nodes)", nodes))
	fmt.Printf("virtual completion time (ms) by per-rank vector size:\n")
	fmt.Printf("%10s", "bytes")
	for _, a := range algs {
		fmt.Printf(" %12s", a)
	}
	fmt.Printf(" %12s %8s\n", "auto", "best")
	verified := true
	for _, szBytes := range sizes {
		fmt.Printf("%10d", szBytes)
		best, bestAlg := 0.0, coll.Auto
		for _, a := range algs {
			cell := bench.RunAllreduceCell(nodes, szBytes, a, *seed)
			verified = verified && cell.OK
			ms := cell.Time.Micros() / 1000
			fmt.Printf(" %12.3f", ms)
			if bestAlg == coll.Auto || ms < best {
				best, bestAlg = ms, a
			}
		}
		auto := bench.RunAllreduceCell(nodes, szBytes, coll.Auto, *seed)
		verified = verified && auto.OK
		fmt.Printf(" %12.3f %8s\n", auto.Time.Micros()/1000, bestAlg)
	}
	fmt.Printf("results verified elementwise on every rank: %v\n", verified)
	fmt.Printf("selector: n<=2 or <=4 KB binomial, <=256 KB rabenseifner, above ring (leaf-ordered)\n")

	header("SGD — data-parallel training, gradient allreduce overlap")
	cfg := bench.SGDConfig{Nodes: 16, Params: 1 << 18, Buckets: 8, Iters: 3,
		Compute: 12 * sim.Millisecond, Seed: *seed}
	if *quick {
		cfg.Nodes, cfg.Params, cfg.Iters = 8, 1<<16, 2
		cfg.Compute = 2 * sim.Millisecond
	}
	res := bench.RunSGD(cfg)
	if !res.OK {
		fmt.Println("sgd run failed")
		return
	}
	fmt.Printf("ranks=%d params=%d buckets=%d iters=%d compute=%v/bucket (ring allreduce per bucket)\n",
		cfg.Nodes, cfg.Params, cfg.Buckets, cfg.Iters, cfg.Compute)
	fmt.Printf("sequential (compute, then reduce):     makespan %v (rank0 comm %v)\n",
		res.Sequential, res.CommSeq)
	fmt.Printf("overlapped (reduce behind next bucket): makespan %v (rank0 comm %v)\n",
		res.Overlapped, res.CommOvl)
	saved := float64(res.Sequential-res.Overlapped) / float64(res.Sequential) * 100
	fmt.Printf("overlap shortens the step by %.1f%%\n", saved)
}

// runSensitivity reproduces the §6.1 claim (citing the LogP sensitivity
// study) that added per-message *overhead* hurts applications more than an
// equal increase in *gap*, because gap only limits long bursts of small
// messages.
func runSensitivity() {
	header("§6.1 — LogP sensitivity: overhead vs gap (P=8)")
	// Two regimes, per the paper's sentence: "increases in gap are, in
	// general, less detrimental than increases in overheads, because such
	// increases only effect applications which send long, frequent bursts
	// of small messages."
	spaced := npb.Kernel{Name: "TYPICAL", Iters: 400, Flops: 0.15e6,
		Pattern: npb.PatPipeline, Bytes: 32e3, SmallMsgs: 1}
	burst := npb.Kernel{Name: "BURST", Iters: 50, Flops: 0.4e6,
		Pattern: npb.PatPipeline, Bytes: 60e3, SmallMsgs: 20}
	baseS := runKernelWith(spaced, nil)
	baseB := runKernelWith(burst, nil)
	overheadMod := func(d sim.Duration) func(*hostos.ClusterConfig) {
		return func(c *hostos.ClusterConfig) {
			c.NIC.OsShort += d
			c.NIC.OrShort += d
			c.NIC.OsBulk += d
			c.NIC.OrBulk += d
		}
	}
	gapMod := func(d sim.Duration) func(*hostos.ClusterConfig) {
		return func(c *hostos.ClusterConfig) {
			c.NIC.SendPost += d
			c.NIC.AckSend += d
		}
	}
	fmt.Printf("%8s | %12s %12s | %12s %12s\n", "delta",
		"typical o+d", "typical g+d", "burst o+d", "burst g+d")
	for _, d := range []sim.Duration{2 * sim.Microsecond, 4 * sim.Microsecond, 8 * sim.Microsecond} {
		so := runKernelWith(spaced, overheadMod(d))
		sg := runKernelWith(spaced, gapMod(d))
		bo := runKernelWith(burst, overheadMod(d))
		bg := runKernelWith(burst, gapMod(d))
		fmt.Printf("%8v | %11.2fx %11.2fx | %11.2fx %11.2fx\n", d,
			float64(so)/float64(baseS), float64(sg)/float64(baseS),
			float64(bo)/float64(baseB), float64(bg)/float64(baseB))
	}
	fmt.Println("(slowdown vs unmodified; overhead hurts everywhere, gap only hurts bursts)")
}

func runKernelWith(k npb.Kernel, mod func(*hostos.ClusterConfig)) sim.Duration {
	m := npb.NewNOW(*seed)
	m.CfgMod = mod
	t, ok := m.Time(k, 8)
	if !ok {
		return 0
	}
	return t
}
