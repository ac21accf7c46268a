package bench

import (
	"fmt"
	"io"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// servePoint is the sizing the serve and tailat rows share: the cluster,
// tier sizes, shard count, and windows every point of a sweep runs at.
// Callers set Scenario, Factor and what else their point needs on a copy.
func servePoint(p Params) serveConfig {
	cfg := serveConfig{
		Hosts: 256, Servers: 32, Clients: 64,
		Shards: 4, // the golden curves run sharded unless -shards says otherwise
		Seed:   p.Seed,
		Warmup: 50 * sim.Millisecond, Window: 150 * sim.Millisecond,
	}
	if p.Quick {
		cfg.Hosts, cfg.Servers, cfg.Clients = 64, 8, 16
		cfg.Warmup, cfg.Window = 20*sim.Millisecond, 60*sim.Millisecond
	}
	if p.Hosts != 0 {
		cfg.Hosts = p.Hosts
		cfg.Servers = p.Hosts / 8
		cfg.Clients = p.Hosts / 4
	}
	if p.Shards != 0 {
		cfg.Shards = p.Shards
	}
	return cfg
}

// serveRow is the serving-scale workload experiment: open-loop clients
// sweep offered load from well under to 3× the serving tier's capacity
// across scenario axes (hot keys, incast fan-in, fault churn, tenant
// interference, …), with a 20 ms end-to-end deadline on every request.
// With the reliability layer on, goodput plateaus near capacity with
// bounded p99 as offered load keeps climbing; the ablation (unbounded
// FIFO, no shedding) collapses past saturation. The default "golden"
// scenario set is captured in results_serve.txt; -scenario runs one axis,
// -scenario list shows them all.
func serveRow(w io.Writer, p Params) error {
	if p.Scenario == "list" {
		for _, s := range serveScenarios() {
			fmt.Fprintf(w, "  %-13s %s\n", s.Name, s.Desc)
		}
		return nil
	}
	base := servePoint(p)
	factors := []float64{0.25, 0.5, 1.0, 1.5, 2.0, 3.0}
	extraFactors := []float64{1.0, 2.0}
	if p.Quick {
		factors = []float64{0.5, 1.0, 2.0}
		extraFactors = []float64{1.0}
	}
	header(w, fmt.Sprintf("serve — open-loop serving SLO curves (%d hosts, %d shards, %d servers, %d clients)",
		base.Hosts, base.Shards, base.Servers, base.Clients))
	fmt.Fprintf(w, "deadline 20ms end-to-end; %v measurement window after %v warmup; load in multiples of capacity\n",
		base.Window, base.Warmup)

	type sweepStat struct {
		peak, last float64 // best and highest-factor goodput (req/s)
		lastP99    sim.Duration
	}
	runSweep := func(title, scn string, ablate bool, fs []float64) (sweepStat, error) {
		fmt.Fprintf(w, "\n-- %s --\n", title)
		fmt.Fprintf(w, "%-7s %10s %10s %7s %8s %8s %8s %7s %7s %7s %8s\n",
			"load", "offered/s", "good/s", "good%", "p50_ms", "p99_ms", "p999_ms", "miss", "shed", "capped", "srvshed")
		var st sweepStat
		var capacity float64
		var hedges, hedgeWins int64
		for _, f := range fs {
			cfg := base
			cfg.Scenario, cfg.Factor, cfg.Ablate = scn, f, ablate
			res, err := runServePoint(cfg)
			if err != nil {
				return st, err
			}
			capacity = res.Capacity
			hedges, hedgeWins = res.Hedges, res.HedgeWins
			slo := res.SLO
			secs := base.Window.Seconds()
			good := float64(slo.Good) / secs
			ms := func(q float64) float64 {
				return float64(slo.Lat.Quantile(q)) / float64(sim.Millisecond)
			}
			fmt.Fprintf(w, "%-7s %10.0f %10.0f %6.1f%% %8.2f %8.2f %8.2f %7d %7d %7d %8d\n",
				fmt.Sprintf("%.2fx", f), float64(slo.Offered)/secs, good,
				100*slo.GoodputFrac(), ms(0.5), ms(0.99), ms(0.999),
				slo.Missed+slo.Failed, slo.Shed, slo.Capped, res.SrvShed)
			if good > st.peak {
				st.peak = good
			}
			st.last, st.lastP99 = good, slo.Lat.Quantile(0.99)
		}
		fmt.Fprintf(w, "capacity estimate: %.0f req/s\n", capacity)
		if hedges > 0 {
			fmt.Fprintf(w, "hedged requests: %d issued, %d won\n", hedges, hedgeWins)
		}
		return st, nil
	}

	if p.Scenario != "golden" {
		_, err := runSweep(p.Scenario, p.Scenario, false, factors)
		return err
	}

	golden := []string{"baseline", "hotkey", "incast", "faultchurn"}
	stats := map[string]sweepStat{}
	var err error
	for _, scn := range golden {
		if stats[scn], err = runSweep(scn+": "+scenarioDesc(scn), scn, false, factors); err != nil {
			return err
		}
	}
	if stats["ablate"], err = runSweep("baseline, reliability layer OFF (ablation)", "baseline", true, factors); err != nil {
		return err
	}
	for _, scn := range []string{"elephant", "straggler", "mmpp", "diurnal", "interference", "gateway", "ps"} {
		if _, err = runSweep(scn+": "+scenarioDesc(scn), scn, false, extraFactors); err != nil {
			return err
		}
	}

	fmt.Fprintln(w)
	for _, scn := range append(golden, "ablate") {
		st := stats[scn]
		pct := 0.0
		if st.peak > 0 {
			pct = 100 * st.last / st.peak
		}
		note := "plateau holds, p99 bounded"
		if pct < 50 {
			note = "collapse"
		}
		fmt.Fprintf(w, "goodput at %.1fx offered: %3.0f%% of peak, p99 %6.2fms — %s (%s)\n",
			factors[len(factors)-1], pct, float64(st.lastP99)/float64(sim.Millisecond), scn, note)
	}
	return nil
}

// tailatRow is the tail-latency attribution experiment: the four golden
// serving scenarios run once each near saturation with the flight recorder
// sampling request trace trees (1-in-8 measured arrivals), and the
// critical-path analyzer folds every finished tree into a per-SLO-class
// dominant-stage distribution plus exemplar worst traces. The point is
// that *where* the tail comes from differs by scenario even when the p99
// looks similar: incast tails attribute to fan-in convergence, fault churn
// to retry backoff, hot keys to server queueing on the saturated shard.
// Everything is virtual-time deterministic per (seed, shards); the golden
// output is results_tailat.txt. -traceout additionally exports the last
// scenario's merged timeline (per-shard tracks, traceID-linked flow
// arrows) as Perfetto-compatible JSON.
func tailatRow(w io.Writer, p Params) error {
	base := servePoint(p) // sharded by default: attribution is only interesting when the merge is real
	base.Factor = 1.0     // at the knee: tails form but each scenario keeps its own mechanism
	base.TraceSample = 8  // 1-in-8 measured arrivals become trace trees

	header(w, fmt.Sprintf("tailat — tail-latency attribution over request trace trees (%d hosts, %d shards, %d servers, %d clients)",
		base.Hosts, base.Shards, base.Servers, base.Clients))
	fmt.Fprintf(w, "offered load %.1fx capacity; deadline 20ms; 1-in-%d measured arrivals traced; %v window after %v warmup\n",
		base.Factor, base.TraceSample, base.Window, base.Warmup)

	scenarios := []string{"baseline", "hotkey", "incast", "faultchurn"}
	for _, scn := range scenarios {
		cfg := base
		cfg.Scenario = scn
		res, err := runServePoint(cfg)
		if err != nil {
			return err
		}
		slo := res.SLO
		secs := base.Window.Seconds()
		fmt.Fprintf(w, "\n-- %s: %s --\n", scn, scenarioDesc(scn))
		fmt.Fprintf(w, "  offered %.0f/s  good %.1f%%  p50 %.2fms  p99 %.2fms  flights %d\n",
			float64(slo.Offered)/secs, 100*slo.GoodputFrac(),
			float64(slo.Lat.Quantile(0.5))/float64(sim.Millisecond),
			float64(slo.Lat.Quantile(0.99))/float64(sim.Millisecond),
			len(res.Flights))
		fmt.Fprint(w, res.Attr.Render())

		if p.TraceOut != "" && scn == scenarios[len(scenarios)-1] {
			return writeTrace(p.TraceOut, func(f io.Writer) error {
				return obs.WriteChromeTraceMerged(f, res.Tracers, res.ShardOf, nil)
			})
		}
	}
	return nil
}
