package bench

import (
	"fmt"
	"io"

	"virtnet/internal/hostos"
	"virtnet/internal/logp"
	"virtnet/internal/npb"
	"virtnet/internal/sim"
)

// The rows whose harness lives in another package: the LogP, bandwidth and
// §8-extension microbenchmarks (internal/logp) and the NPB speedup and
// sensitivity tables (internal/npb).

func logpRow(w io.Writer, p Params) error {
	header(w, "Fig. 3 — LogP characterization (us)")
	const iters = 200
	e, cl, sv, shutdown := amPair(p.Seed, hostos.DefaultClusterConfig())
	am := logp.Measure(e, cl, sv, iters)
	shutdown()
	e, cl, sv, shutdown = gamPair(p.Seed)
	gm := logp.Measure(e, cl, sv, iters)
	shutdown()

	fmt.Fprintf(w, "%-6s %8s %8s %8s %8s %10s\n", "layer", "Os", "Or", "L", "g", "RTT")
	fmt.Fprintf(w, "%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "AM",
		am.Os.Micros(), am.Or.Micros(), am.L.Micros(), am.G.Micros(), am.RTT.Micros())
	fmt.Fprintf(w, "%-6s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "GAM",
		gm.Os.Micros(), gm.Or.Micros(), gm.L.Micros(), gm.G.Micros(), gm.RTT.Micros())
	fmt.Fprintf(w, "ratios: gap x%.2f (paper 2.21), RTT x%.2f (paper 1.23)\n",
		float64(am.G)/float64(gm.G), float64(am.RTT)/float64(gm.RTT))
	return nil
}

func bandwidthRow(w io.Writer, p Params) error {
	header(w, "Fig. 4 — transfer bandwidth (MB/s) and bulk round-trip time")
	const count = 200
	sizes := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	fmt.Fprintf(w, "%8s %10s %10s\n", "bytes", "AM", "GAM")
	for _, sz := range sizes {
		e, cl, sv, shutdown := amPair(p.Seed, hostos.DefaultClusterConfig())
		amBW := logp.Bandwidth(e, cl, sv, sz, count)
		shutdown()
		e, cl, sv, shutdown = gamPair(p.Seed)
		gBW := logp.Bandwidth(e, cl, sv, sz, count)
		shutdown()
		fmt.Fprintf(w, "%8d %10.1f %10.1f\n", sz, amBW, gBW)
	}
	fmt.Fprintf(w, "hardware limits: SBUS write DMA 46.8 MB/s (paper: AM 43.9, GAM 38 at 8 KB)\n")

	fmt.Fprintf(w, "\nround-trip time for n-byte echo (paper fit: 0.1112*n + 61.02 us):\n")
	var pts [][2]float64
	for _, sz := range []int{128, 1024, 4096, 8192} {
		e, cl, sv, shutdown := amPair(p.Seed, hostos.DefaultClusterConfig())
		rtt := logp.RTTBulk(e, cl, sv, sz)
		shutdown()
		fmt.Fprintf(w, "%8d %10.1f us\n", sz, rtt.Micros())
		pts = append(pts, [2]float64{float64(sz), rtt.Micros()})
	}
	slope, icept := fitLine(pts)
	fmt.Fprintf(w, "fit: %.4f*n + %.2f us\n", slope, icept)
	return nil
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

// extensionsRow measures two of §8's future-work items on the AM pair:
// retransmission timers set from a per-channel RTT estimate rather than a
// fixed base, and acknowledgments piggybacked on reverse traffic rather than
// sent as packets of their own.
func extensionsRow(w io.Writer, p Params) error {
	header(w, "§8 — future-work extensions: adaptive timeouts, piggybacked acks")
	bandwidth := func(adaptive bool) float64 {
		cfg := hostos.DefaultClusterConfig()
		cfg.NIC.RetransBase = 500 * sim.Microsecond // below bulk staging delays
		cfg.NIC.AdaptiveTimeout = adaptive
		e, cl, sv, shutdown := amPair(p.Seed, cfg)
		defer shutdown()
		return logp.Bandwidth(e, cl, sv, 8192, 150)
	}
	gap := func(piggyback bool) sim.Duration {
		cfg := hostos.DefaultClusterConfig()
		cfg.NIC.PiggybackAcks = piggyback
		e, cl, sv, shutdown := amPair(p.Seed, cfg)
		defer shutdown()
		return logp.Measure(e, cl, sv, 60).G
	}
	fmt.Fprintf(w, "8 KB bandwidth, 500 us retransmission base (MB/s): fixed %.2f, adaptive %.2f\n",
		bandwidth(false), bandwidth(true))
	fmt.Fprintf(w, "small-message gap (us): standalone acks %.4g, piggybacked %.4g\n",
		gap(false).Micros(), gap(true).Micros())
	return nil
}

func npbRow(w io.Writer, p Params) error {
	header(w, "Fig. 5 — NPB speedups (constant problem size)")
	ps := []int{1, 2, 4, 8, 16, 32}
	machines := []npb.Machine{npb.SP2(), npb.NewNOW(p.Seed), npb.Origin2000()}
	for _, m := range machines {
		fmt.Fprintf(w, "\n%s:\n%-6s", m.Name(), "kernel")
		for _, n := range ps {
			fmt.Fprintf(w, " %7s", fmt.Sprintf("P=%d", n))
		}
		fmt.Fprintln(w)
		for _, k := range npb.Kernels() {
			s, ok := npb.Speedup(m, k, ps)
			if !ok {
				return fmt.Errorf("npb %s on %s did not complete", k.Name, m.Name())
			}
			fmt.Fprintf(w, "%-6s", k.Name)
			for _, v := range s {
				fmt.Fprintf(w, " %7.1f", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\n(ideal = P; FT and IS are bisection-limited on the NOW, §6.2)")
	return nil
}

// sensitivityRow reproduces the §6.1 claim (citing the LogP sensitivity
// study) that added per-message *overhead* hurts applications more than an
// equal increase in *gap*, because gap only limits long bursts of small
// messages.
func sensitivityRow(w io.Writer, p Params) error {
	header(w, "§6.1 — LogP sensitivity: overhead vs gap (P=8)")
	// Two regimes, per the paper's sentence: "increases in gap are, in
	// general, less detrimental than increases in overheads, because such
	// increases only effect applications which send long, frequent bursts
	// of small messages."
	spaced := npb.Kernel{Name: "TYPICAL", Iters: 400, Flops: 0.15e6,
		Pattern: npb.PatPipeline, Bytes: 32e3, SmallMsgs: 1}
	burst := npb.Kernel{Name: "BURST", Iters: 50, Flops: 0.4e6,
		Pattern: npb.PatPipeline, Bytes: 60e3, SmallMsgs: 20}
	kernelTime := func(k npb.Kernel, mod func(*hostos.ClusterConfig)) sim.Duration {
		m := npb.NewNOW(p.Seed)
		m.CfgMod = mod
		t, _ := m.Time(k, 8) // 0 when the kernel does not complete
		return t
	}
	baseS := kernelTime(spaced, nil)
	baseB := kernelTime(burst, nil)
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
	fmt.Fprintf(w, "%8s | %12s %12s | %12s %12s\n", "delta",
		"typical o+d", "typical g+d", "burst o+d", "burst g+d")
	for _, d := range []sim.Duration{2 * sim.Microsecond, 4 * sim.Microsecond, 8 * sim.Microsecond} {
		so := kernelTime(spaced, overheadMod(d))
		sg := kernelTime(spaced, gapMod(d))
		bo := kernelTime(burst, overheadMod(d))
		bg := kernelTime(burst, gapMod(d))
		fmt.Fprintf(w, "%8v | %11.2fx %11.2fx | %11.2fx %11.2fx\n", d,
			float64(so)/float64(baseS), float64(sg)/float64(baseS),
			float64(bo)/float64(baseB), float64(bg)/float64(baseB))
	}
	fmt.Fprintln(w, "(slowdown vs unmodified; overhead hurts everywhere, gap only hurts bursts)")
	return nil
}
