// Top-level benchmarks: one per table/figure of the paper's evaluation,
// each reporting the figure's headline metric via b.ReportMetric. These use
// scaled-down configurations so `go test -bench=.` completes quickly; the
// full sweeps are produced by cmd/vnbench.
package virtnet

import (
	"testing"

	"virtnet/internal/bench"
	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/logp"
	"virtnet/internal/npb"
	"virtnet/internal/sim"
)

// Fig. 3: LogP parameters for virtual networks (AM).
func BenchmarkFig3LogPAM(b *testing.B) {
	b.ReportAllocs()
	var r logp.Result
	for i := 0; i < b.N; i++ {
		e, cl, sv, shutdown := bench.AMPair(int64(i + 1))
		r = logp.Measure(e, cl, sv, 50)
		shutdown()
	}
	b.ReportMetric(r.Os.Micros(), "Os_us")
	b.ReportMetric(r.G.Micros(), "gap_us")
	b.ReportMetric(r.RTT.Micros(), "RTT_us")
}

// Fig. 3: LogP parameters for the GAM baseline.
func BenchmarkFig3LogPGAM(b *testing.B) {
	b.ReportAllocs()
	var r logp.Result
	for i := 0; i < b.N; i++ {
		e, cl, sv, shutdown := bench.GAMPair(int64(i + 1))
		r = logp.Measure(e, cl, sv, 50)
		shutdown()
	}
	b.ReportMetric(r.Os.Micros(), "Os_us")
	b.ReportMetric(r.G.Micros(), "gap_us")
	b.ReportMetric(r.RTT.Micros(), "RTT_us")
}

// Fig. 4: 8 KB transfer bandwidth, AM (paper: 43.9 MB/s).
func BenchmarkFig4BandwidthAM(b *testing.B) {
	b.ReportAllocs()
	var mbps float64
	for i := 0; i < b.N; i++ {
		e, cl, sv, shutdown := bench.AMPair(int64(i + 1))
		mbps = logp.Bandwidth(e, cl, sv, 8192, 100)
		shutdown()
	}
	b.ReportMetric(mbps, "MB/s")
}

// Fig. 4: 8 KB transfer bandwidth, GAM (paper: 38 MB/s).
func BenchmarkFig4BandwidthGAM(b *testing.B) {
	b.ReportAllocs()
	var mbps float64
	for i := 0; i < b.N; i++ {
		e, cl, sv, shutdown := bench.GAMPair(int64(i + 1))
		mbps = logp.Bandwidth(e, cl, sv, 8192, 100)
		shutdown()
	}
	b.ReportMetric(mbps, "MB/s")
}

// Fig. 5: NPB CG speedup at 8 processes on the simulated NOW.
func BenchmarkFig5NPBCGonNOW(b *testing.B) {
	b.ReportAllocs()
	k, _ := npb.KernelByName("CG")
	k.Iters = 3
	k.Flops = 40e6
	k.Bytes = 200e3
	var sp float64
	for i := 0; i < b.N; i++ {
		now := npb.NewNOW(int64(i + 1))
		s, ok := npb.Speedup(now, k, []int{8})
		if !ok {
			b.Fatal("NOW run failed")
		}
		sp = s[0]
	}
	b.ReportMetric(sp, "speedup_at_8")
}

// Fig. 5: FT on the analytic SP-2 and Origin comparators.
func BenchmarkFig5NPBFTComparators(b *testing.B) {
	b.ReportAllocs()
	ft, _ := npb.KernelByName("FT")
	var sp2, ori float64
	for i := 0; i < b.N; i++ {
		s1, _ := npb.Speedup(npb.SP2(), ft, []int{32})
		s2, _ := npb.Speedup(npb.Origin2000(), ft, []int{32})
		sp2, ori = s1[0], s2[0]
	}
	b.ReportMetric(sp2, "SP2_speedup_32")
	b.ReportMetric(ori, "Origin_speedup_32")
}

func csRun(b *testing.B, cfg bench.CSConfig) bench.CSResult {
	b.Helper()
	cfg.Warmup = 100 * sim.Millisecond
	cfg.Window = 200 * sim.Millisecond
	var r bench.CSResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r = bench.RunClientServer(cfg)
	}
	return r
}

// Fig. 6: small-message contention, shared-endpoint server (paper peak ~78K).
func BenchmarkFig6SmallOneVN(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 4, Mode: bench.OneVN, Frames: 8})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
}

// Fig. 6: single-threaded server, 8 frames, overcommitted.
func BenchmarkFig6SmallST8(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 12, Mode: bench.ST, Frames: 8})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
	b.ReportMetric(r.RemapsPerSec, "remaps/s")
}

// Fig. 6: multi-threaded server, 96 frames.
func BenchmarkFig6SmallMT96(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 12, Mode: bench.MT, Frames: 96})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
}

// Fig. 7: bulk contention, shared endpoint (paper: ~42.8 MB/s aggregate).
func BenchmarkFig7BulkOneVN(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 4, Mode: bench.OneVN, Frames: 8, MsgBytes: 8192})
	b.ReportMetric(r.AggregateMBps, "MB/s")
}

// Fig. 7: bulk contention, per-client endpoints with 96 frames (paper: beats
// OneVN because one-to-one connections avoid overruns).
func BenchmarkFig7BulkST96(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 12, Mode: bench.ST, Frames: 96, MsgBytes: 8192})
	b.ReportMetric(r.AggregateMBps, "MB/s")
}

// §6.2: Linpack (paper: 10.14 GF on 100 nodes; scaled here).
func BenchmarkE62Linpack(b *testing.B) {
	b.ReportAllocs()
	var r bench.LinpackResult
	for i := 0; i < b.N; i++ {
		var ok bool
		r, ok = bench.RunLinpack(bench.LinpackConfig{
			Nodes: 16, N: 1024, NB: 128, RateFlops: 135e6, Seed: int64(i + 1)})
		if !ok {
			b.Fatal("linpack failed")
		}
	}
	b.ReportMetric(r.GFlops, "GFLOPS")
	b.ReportMetric(r.Efficiency*100, "pct_of_peak")
}

// §6.3: time-shared parallel applications (paper: within 15% of sequence).
func BenchmarkE63Timeshare(b *testing.B) {
	b.ReportAllocs()
	var r bench.TimeshareResult
	for i := 0; i < b.N; i++ {
		var ok bool
		r, ok = bench.RunTimeshare(bench.TimeshareConfig{
			Nodes: 4, Apps: 2, Iters: 15,
			Compute: 2 * sim.Millisecond, MsgBytes: 2048, Seed: int64(i + 1)})
		if !ok {
			b.Fatal("timeshare failed")
		}
	}
	b.ReportMetric(r.Ratio, "shared_over_seq")
}

// §6.4.1: 8:1 overcommit robustness (paper: 50-75% of peak, 200-300 remaps/s).
func BenchmarkE64Overcommit(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 16, Mode: bench.MT, Frames: 8})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
	b.ReportMetric(r.RemapsPerSec, "remaps/s")
}

// Ablation: remove the on-host r/w state (the paper's original design).
func BenchmarkAblationNoHostRW(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 12, Mode: bench.ST, Frames: 8, DisableHostRW: true})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
}

// Ablation: LRU frame replacement instead of the paper's random policy.
func BenchmarkAblationReplacementLRU(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 12, Mode: bench.ST, Frames: 8, Policy: hostos.ReplaceLRU})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
	b.ReportMetric(r.RemapsPerSec, "remaps/s")
}

// Ablation: a single logical channel per NI pair (no latency masking).
func BenchmarkAblationChannels1(b *testing.B) {
	b.ReportAllocs()
	r := csRun(b, bench.CSConfig{Clients: 4, Mode: bench.OneVN, Frames: 8, Channels: 1})
	b.ReportMetric(r.AggregateMsgs, "msgs/s")
}

// Ablation: disable the WRR loiter bound, so a bulk hog starves a pinging
// endpoint on the same NI.
func BenchmarkAblationLoiterOff(b *testing.B) {
	b.ReportAllocs()
	var r bench.LoiterResult
	for i := 0; i < b.N; i++ {
		r = bench.RunLoiterAblation(true, int64(i+1))
	}
	b.ReportMetric(r.BulkMBps, "hog_MB/s")
	b.ReportMetric(float64(r.PingCount), "pings")
}

// §8 extension: adaptive RTT-based retransmission timers vs the fixed base,
// under a deliberately mis-set short base timeout.
func BenchmarkExtensionAdaptiveTimeout(b *testing.B) {
	b.ReportAllocs()
	run := func(adaptive bool) float64 {
		ccfg := hostos.DefaultClusterConfig()
		ccfg.NIC.RetransBase = 500 * sim.Microsecond // below bulk staging delays
		ccfg.NIC.AdaptiveTimeout = adaptive
		cl := hostos.NewCluster(1, 2, ccfg)
		defer cl.Shutdown()
		b0 := core.Attach(cl.Nodes[0])
		b1 := core.Attach(cl.Nodes[1])
		e0, _ := b0.NewEndpoint(1, 4)
		e1, _ := b1.NewEndpoint(2, 4)
		e0.Map(0, e1.Name(), 2)
		e1.Map(0, e0.Name(), 1)
		mbps := logp.Bandwidth(cl.ShardEngine(0), logp.AMStation{EP: e0, Idx: 0}, logp.AMStation{EP: e1, Idx: 0}, 8192, 150)
		return mbps
	}
	var fixed, adaptive float64
	for i := 0; i < b.N; i++ {
		fixed = run(false)
		adaptive = run(true)
	}
	b.ReportMetric(fixed, "fixed_MB/s")
	b.ReportMetric(adaptive, "adaptive_MB/s")
}

// §8 extension: piggybacked acknowledgments vs standalone ack packets on
// bidirectional small-message traffic.
func BenchmarkExtensionPiggybackAcks(b *testing.B) {
	b.ReportAllocs()
	run := func(piggy bool) float64 {
		ccfg := hostos.DefaultClusterConfig()
		ccfg.NIC.PiggybackAcks = piggy
		cl := hostos.NewCluster(1, 2, ccfg)
		defer cl.Shutdown()
		b0 := core.Attach(cl.Nodes[0])
		b1 := core.Attach(cl.Nodes[1])
		e0, _ := b0.NewEndpoint(1, 4)
		e1, _ := b1.NewEndpoint(2, 4)
		e0.Map(0, e1.Name(), 2)
		e1.Map(0, e0.Name(), 1)
		r := logp.Measure(cl.ShardEngine(0), logp.AMStation{EP: e0, Idx: 0}, logp.AMStation{EP: e1, Idx: 0}, 60)
		return r.G.Micros()
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off, "gap_us_standalone")
	b.ReportMetric(on, "gap_us_piggyback")
}

// §7 comparison: VIA's per-pair provisioning vs endpoint pooling under the
// NI's 8-frame constraint.
func BenchmarkVIAvsVNResourcePressure(b *testing.B) {
	b.ReportAllocs()
	var r bench.VIAPressureResult
	for i := 0; i < b.N; i++ {
		var ok bool
		r, ok = bench.RunVIAPressure(bench.VIAPressureConfig{Nodes: 10, Rounds: 5, Seed: int64(i + 1)})
		if !ok {
			b.Fatal("via pressure failed")
		}
	}
	b.ReportMetric(r.VNTime.Micros(), "VN_us")
	b.ReportMetric(r.VIATime.Micros(), "VIA_us")
	b.ReportMetric(float64(r.VIARemaps), "VIA_remaps")
}
