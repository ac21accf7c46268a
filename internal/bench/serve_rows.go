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
// A -hosts too small for one server is an error, before the row prints.
func servePoint(p Params) (serveConfig, error) {
	cfg := serveConfig{
		Hosts: 256, Servers: 32, Clients: 64,
		Shards: 4, // the golden curves run sharded unless -shards says otherwise
		Seed:   p.Seed,
		Warmup: 50 * sim.Millisecond, Window: 150 * sim.Millisecond,
	}
	if p.Hosts != 0 {
		if p.Hosts < 8 {
			return cfg, fmt.Errorf("-hosts %d: a serving cluster needs at least 8 hosts, for one server", p.Hosts)
		}
		cfg.Hosts = p.Hosts
		cfg.Servers = p.Hosts / 8
		cfg.Clients = p.Hosts / 4
	}
	if p.Shards != 0 {
		cfg.Shards = p.Shards
	}
	return cfg, nil
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
	if p.Scenario != "golden" && scenarioDesc(p.Scenario) == "" {
		return fmt.Errorf("unknown scenario %q (-scenario list prints them)", p.Scenario)
	}
	base, err := servePoint(p)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("serve — open-loop serving SLO curves (%d hosts, %d shards, %d servers, %d clients)",
		base.Hosts, base.Shards, base.Servers, base.Clients))
	fmt.Fprintf(w, "deadline 20ms end-to-end; %v measurement window after %v warmup; load in multiples of capacity\n",
		base.Window, base.Warmup)

	sweeps := serveSweeps()
	if p.Scenario != "golden" {
		sweeps = []serveSweep{{title: p.Scenario, scn: p.Scenario, loads: serveLoads}}
	}
	plateaus := ""
	for _, sw := range sweeps {
		plateau, err := runServeSweep(w, base, sw)
		if err != nil {
			return err
		}
		plateaus += plateau
	}
	if plateaus != "" {
		fmt.Fprintf(w, "\n%s", plateaus)
	}
	return nil
}

// serveLoads are the offered loads, in multiples of capacity, of the golden
// scenarios' curves and of a -scenario sweep.
var serveLoads = []float64{0.25, 0.5, 1.0, 1.5, 2.0, 3.0}

// serveSweep is one offered-load curve of the serve row: one scenario, with
// the reliability layer on or ablated, at each of loads. A named sweep adds
// a plateau line to the end of the row.
type serveSweep struct {
	name, title, scn string
	ablate           bool
	loads            []float64
}

// serveSweeps are the golden's sweeps in print order: the four golden
// scenarios and the ablation over serveLoads, then the other scenarios at
// 1x and 2x.
func serveSweeps() []serveSweep {
	var sws []serveSweep
	for _, scn := range []string{"baseline", "hotkey", "incast", "faultchurn"} {
		sws = append(sws, serveSweep{scn, scn + ": " + scenarioDesc(scn), scn, false, serveLoads})
	}
	sws = append(sws, serveSweep{"ablate", "baseline, reliability layer OFF (ablation)", "baseline", true, serveLoads})
	for _, scn := range []string{"elephant", "straggler", "mmpp", "diurnal", "interference", "gateway", "ps"} {
		sws = append(sws, serveSweep{"", scn + ": " + scenarioDesc(scn), scn, false, []float64{1.0, 2.0}})
	}
	return sws
}

// runServeSweep prints one sweep: its head, a line per load (each on a
// cluster of its own) and the capacity estimate, which the config fixes
// and every load shares. It returns a named sweep's plateau line: the last
// load's goodput against the best load's, and the last load's p99.
func runServeSweep(w io.Writer, base serveConfig, sw serveSweep) (string, error) {
	serveSweepHead(w, sw.title)
	var res serveResult
	var peak, last float64 // goodput, req/s
	for _, f := range sw.loads {
		var err error
		if res, err = serveLoadLine(w, base, sw, f); err != nil {
			return "", err
		}
		last = float64(res.SLO.Good) / base.Window.Seconds()
		peak = max(peak, last)
	}
	fmt.Fprintf(w, "capacity estimate: %.0f req/s\n", res.Capacity)
	if res.Hedges > 0 {
		fmt.Fprintf(w, "hedged requests: %d issued, %d won\n", res.Hedges, res.HedgeWins)
	}
	if sw.name == "" {
		return "", nil
	}
	pct := 0.0
	if peak > 0 {
		pct = 100 * last / peak
	}
	note := "plateau holds, p99 bounded"
	if pct < 50 {
		note = "collapse"
	}
	return fmt.Sprintf("goodput at %.1fx offered: %3.0f%% of peak, p99 %6.2fms — %s (%s)\n", sw.loads[len(sw.loads)-1],
		pct, float64(res.SLO.Lat.Quantile(0.99))/float64(sim.Millisecond), sw.name, note), nil
}

// serveSweepHead prints a sweep's title and column header.
func serveSweepHead(w io.Writer, title string) {
	fmt.Fprintf(w, "\n-- %s --\n", title)
	fmt.Fprintf(w, "%-7s %10s %10s %7s %8s %8s %8s %7s %7s %7s %8s\n",
		"load", "offered/s", "good/s", "good%", "p50_ms", "p99_ms", "p999_ms", "miss", "shed", "capped", "srvshed")
}

// serveLoadLine runs sweep sw's point at load f on a fresh cluster sized by
// base, and prints its line.
func serveLoadLine(w io.Writer, base serveConfig, sw serveSweep, f float64) (serveResult, error) {
	cfg := base
	cfg.Scenario, cfg.Factor, cfg.Ablate = sw.scn, f, sw.ablate
	res, err := runServePoint(cfg)
	if err != nil {
		return res, err
	}
	slo := res.SLO
	secs := cfg.Window.Seconds()
	ms := func(q float64) float64 {
		return float64(slo.Lat.Quantile(q)) / float64(sim.Millisecond)
	}
	fmt.Fprintf(w, "%-7s %10.0f %10.0f %6.1f%% %8.2f %8.2f %8.2f %7d %7d %7d %8d\n",
		fmt.Sprintf("%.2fx", f), float64(slo.Offered)/secs, float64(slo.Good)/secs,
		100*slo.GoodputFrac(), ms(0.5), ms(0.99), ms(0.999),
		slo.Missed+slo.Failed, slo.Shed, slo.Capped, res.SrvShed)
	return res, nil
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
	base, err := servePoint(p) // sharded by default: attribution is only interesting when the merge is real
	if err != nil {
		return err
	}
	base.Factor = 1.0    // at the knee: tails form but each scenario keeps its own mechanism
	base.TraceSample = 8 // 1-in-8 measured arrivals become trace trees

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
				return obs.WriteChromeTrace(f, res.Tracers, res.ShardOf, nil)
			})
		}
	}
	return nil
}
