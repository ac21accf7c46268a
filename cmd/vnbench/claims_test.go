package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"virtnet/internal/bench"
)

// band is a closed interval a claimed number must lie in; ±Inf leaves a
// side open.
type band struct{ lo, hi float64 }

func (b band) holds(v float64) bool { return b.lo <= v && v <= b.hi }

func (b band) String() string { return fmt.Sprintf("[%g, %g]", b.lo, b.hi) }

var inf = math.Inf(1)

// claim is one row of the paper oracle: a number or shape pulled out of a
// committed golden and the band it must lie in. The band is the paper's
// tolerance for a paper claim, or the figure EXPERIMENTS.md states for an
// extension; never the golden's current digits. A known miss (ROADMAP item
// 16) carries the paper's band beside its own: the number must stay in its
// own band, and the test says so when it enters the paper's, so the row
// loses its miss mark when the miss is closed.
type claim struct {
	row  string // a row of bench.Experiments; the number comes from results_<row>.txt
	ref  string // the paper's figure or section ("Fig. 3", "§6.2"), or "ext."
	what string // the claim, with the source of its band
	in   band
	miss *band // the paper's band, for a known miss
	get  func(d *doc) float64
}

// paper marks a claim as a known miss whose paper band is b.
func paper(lo, hi float64) *band { return &band{lo, hi} }

// claims is the oracle: every headline claim of EXPERIMENTS.md, with every
// row of bench.Experiments holding at least one (TestEveryRowHasAClaim). A
// PR that regenerates a golden keeps TestPaperClaims green, or moves a band
// and says why in CHANGES.md.
var claims = []claim{
	// Fig. 3. The paper's AM/GAM parameters, each within 10%; the ratios
	// within 15% and 10% of the paper's.
	{"logp", "Fig. 3", "gap ratio g(AM)/g(GAM): paper x2.21, within 15%", band{1.88, 2.54}, nil,
		func(d *doc) float64 { return d.cell("LogP", "AM", "g") / d.cell("LogP", "GAM", "g") }},
	{"logp", "Fig. 3", "RTT ratio AM/GAM: paper x1.23, within 10%", band{1.11, 1.35}, nil,
		func(d *doc) float64 { return d.cell("LogP", "AM", "RTT") / d.cell("LogP", "GAM", "RTT") }},
	{"logp", "Fig. 3", "AM send overhead Os: paper ~3.8 us, within 10%", band{3.42, 4.18}, nil,
		func(d *doc) float64 { return d.cell("LogP", "AM", "Os") }},
	{"logp", "Fig. 3", "GAM send overhead Os: paper ~2.9 us, within 10%", band{2.61, 3.19}, nil,
		func(d *doc) float64 { return d.cell("LogP", "GAM", "Os") }},
	{"logp", "Fig. 3", "AM gap g: paper ~12.8 us, within 10%", band{11.52, 14.08}, nil,
		func(d *doc) float64 { return d.cell("LogP", "AM", "g") }},
	{"logp", "Fig. 3", "GAM gap g: paper ~5.8 us, within 10%", band{5.22, 6.38}, nil,
		func(d *doc) float64 { return d.cell("LogP", "GAM", "g") }},
	{"logp", "Fig. 3", "miss: Or(AM)/Or(GAM) is 1 (equal); the paper has AM's Or below GAM's", band{0.95, 1.05}, paper(0, 0.95),
		func(d *doc) float64 { return d.cell("LogP", "AM", "Or") / d.cell("LogP", "GAM", "Or") }},

	// Fig. 4.
	{"bandwidth", "Fig. 4", "AM at 8 KB reaches >= 90% of the 46.8 MB/s SBUS limit (paper 93%)", band{0.90, 1}, nil,
		func(d *doc) float64 { return d.cell("transfer bandwidth", "8192", "AM") / 46.8 }},
	{"bandwidth", "Fig. 4", "AM at 8 KB: paper 43.9 MB/s, within 10%", band{39.5, 48.3}, nil,
		func(d *doc) float64 { return d.cell("transfer bandwidth", "8192", "AM") }},
	{"bandwidth", "Fig. 4", "GAM at 8 KB: paper 38 MB/s, within 10%", band{34.2, 41.8}, nil,
		func(d *doc) float64 { return d.cell("transfer bandwidth", "8192", "GAM") }},
	{"bandwidth", "Fig. 4", "AM half-power point N1/2 (bytes to half the 8 KB bandwidth): paper 540 B, within 25%", band{405, 675}, nil,
		halfPower},
	{"bandwidth", "Fig. 4", "bulk echo RTT slope (us/byte): paper 0.1112, within 25%", band{0.083, 0.139}, nil,
		func(d *doc) float64 { return d.num(`(?m)^fit: ([\d.]+)\*n`) }},

	// Fig. 5, at P = 32 on the NOW against the analytic comparators.
	{"npb", "Fig. 5", "IS and FT are bisection-limited on the NOW: the better reaches <= 85% of ideal", band{0, 0.85}, nil,
		func(d *doc) float64 { return max(d.cell("NOW:", "IS", "P=32"), d.cell("NOW:", "FT", "P=32")) / 32 }},
	{"npb", "Fig. 5", "the other six are near-linear on the NOW: the worst reaches >= 90% of ideal", band{0.9, inf}, nil,
		func(d *doc) float64 { return slices.Min(npbSix(d, "NOW:")) / 32 }},
	{"npb", "Fig. 5", "the NOW scales better than the SP-2: mean speedup ratio of the six >= 1", band{1, inf}, nil,
		func(d *doc) float64 { return mean(npbSix(d, "NOW:")) / mean(npbSix(d, "SP-2:")) }},
	{"npb", "Fig. 5", "the cache effect is more pronounced on the Origin: mean speedup ratio Origin/NOW of the six >= 1", band{1, inf}, nil,
		func(d *doc) float64 { return mean(npbSix(d, "Origin2000:")) / mean(npbSix(d, "NOW:")) }},

	// Fig. 6.
	{"contention-small", "Fig. 6", "server peak with one client: paper ~78 K msgs/s, within 10%", band{70200, 85800}, nil,
		func(d *doc) float64 { return d.cell("aggregate", "1", "OneVN") }},
	{"contention-small", "Fig. 6", "OneVN's knee: the first client count below the one-client rate is 3 (paper: from 2 to 3)", band{3, 3}, nil,
		func(d *doc) float64 { return firstBelow(d, "aggregate", "OneVN", 1) }},
	{"contention-small", "Fig. 6", "miss: OneVN's drop from 2 to 3 clients is gentler than the paper's 75 K -> 60 K", band{0.9, 1}, paper(0.7, 0.9),
		func(d *doc) float64 { return d.cell("aggregate", "3", "OneVN") / d.cell("aggregate", "2", "OneVN") }},
	{"contention-small", "Fig. 6", "OneVN clients get proportional shares through 8 clients: worst client-0 share off by <= 15%", band{0, 0.15}, nil,
		func(d *doc) float64 { return shareSkew(d, "OneVN", 8) }},
	{"contention-small", "Fig. 6", "8-frame servers start remapping past 8 clients (first measured count 12)", band{9, 12}, nil,
		func(d *doc) float64 { return d.num(`(?m)^(\d+) .*ST-8:\d+`) }},
	{"contention-small", "Fig. 6", "MT is resilient to the number of server frames: past 8 clients MT-8/MT-96 beats ST-8/ST-96", band{1, inf}, nil,
		func(d *doc) float64 { return frameRetention(d, "MT") / frameRetention(d, "ST") }},

	// Fig. 7.
	{"contention-bulk", "Fig. 7", "OneVN peak: paper ~42.8 MB/s, within 10%", band{38.5, 47.1}, nil,
		func(d *doc) float64 { return d.cell("aggregate", "1", "OneVN") }},
	{"contention-bulk", "Fig. 7", "miss: 8-frame servers fall from 12 clients (the first count past 8 the sweep measures); the paper's from 9", band{10, 12}, paper(9, 9),
		func(d *doc) float64 {
			return min(firstBelow(d, "aggregate", "ST-8", 1), firstBelow(d, "aggregate", "MT-8", 1))
		}},
	{"contention-bulk", "Fig. 7", "96-frame servers at or above OneVN, within the table's 1 MB/s rounding", band{-1, inf}, nil,
		func(d *doc) float64 {
			worst := inf
			for _, n := range d.col("aggregate", "clients") {
				row := strconv.Itoa(int(n))
				worst = min(worst, d.cell("aggregate", row, "ST-96")-d.cell("aggregate", row, "OneVN"),
					d.cell("aggregate", row, "MT-96")-d.cell("aggregate", row, "OneVN"))
			}
			return worst
		}},
	{"contention-bulk", "Fig. 7", "miss: client 0's OneVN share falls to a fifth of its fair share by 6 clients; the paper's clients share alike", band{0.1, 0.85}, paper(0.85, 1.15),
		func(d *doc) float64 { return worstShare(d, "OneVN", 8) }},

	// §6.2, §6.3.
	{"linpack", "§6.2", "Linpack on 100 nodes: paper 10.14 GFLOPS, within 10%", band{9.13, 11.15}, nil,
		func(d *doc) float64 { return d.num(`([\d.]+) GFLOPS in`) }},
	{"timeshare", "§6.3", "balanced time-sharing inside the paper's 15% bound", band{0.8, 1.15}, nil,
		func(d *doc) float64 { return d.num(`balanced .*ratio=([\d.]+)`) }},
	{"timeshare", "§6.3", "imbalanced time-sharing inside the bound, gaining up to the paper's 20%", band{0.8, 1.15}, nil,
		func(d *doc) float64 { return d.num(`imbalanced .*ratio=([\d.]+)`) }},
	{"timeshare", "§6.3", "sharing gains more with imbalance: imbalanced ratio minus balanced <= 0", band{-inf, 0}, nil,
		func(d *doc) float64 {
			return d.num(`imbalanced .*ratio=([\d.]+)`) - d.num(`(?m)^balanced .*ratio=([\d.]+)`)
		}},
	{"timeshare", "§6.3", "miss: comm time per rank inflates ~5x under sharing (balanced); the paper's stays nearly constant", band{3, 8}, paper(0.8, 1.25),
		func(d *doc) float64 {
			return d.num(`comm/rank: shared=([\d.]+)ms`) / d.num(`comm/rank: shared=[\d.]+ms seq=([\d.]+)ms`)
		}},

	// §6.4.1.
	{"overcommit", "§6.4.1", "miss: 32 clients on 8 frames keep 79% of peak; the paper's 50-75%", band{75, 90}, paper(50, 75),
		func(d *doc) float64 { return d.num(`= (\d+)% of peak`) }},
	{"overcommit", "§6.4.1", "miss: 500 endpoint re-mappings/s; the paper's 200-300/s", band{300, 700}, paper(200, 300),
		func(d *doc) float64 { return d.num(`re-mappings: (\d+)/s`) }},
	{"overcommit", "§6.4.1", "the remap rate is sustained: the slowest window decile remaps >= 25% of the mean", band{0.25, inf}, nil,
		func(d *doc) float64 {
			deciles := d.nums(`(\d+)`, d.match(`decile: \[([\d ]+)\]`))
			return slices.Min(deciles) / mean(deciles)
		}},
	{"overcommit", "§6.4.1", "client RTTs are strongly bimodal: slow mean >= 10x fast mean", band{10, inf}, nil,
		func(d *doc) float64 { return d.dur(`slow \(mean ([\d.]+\w+)\)`) / d.dur(`fast \(mean ([\d.]+\w+)\)`) }},
	{"ablations", "§6.4.1", "without on-host r/w state a single-threaded server collapses to a few % (<= 10%) of the 80 K peak", band{0, 0.10}, nil,
		func(d *doc) float64 { return d.num(`without \(orig\. design\): +(\d+) msgs/s`) / 80000 }},
	{"ablations", "ext.", "replacement policy: LRU mildly better than the paper's random; random within 10% of it", band{0.9, 1}, nil,
		func(d *doc) float64 { return d.num(`random +(\d+) msgs/s`) / d.num(`lru +(\d+) msgs/s`) }},
	{"ablations", "§5.1", "multiple logical channels mask ack latency: 4 channels >= 1.5x one", band{1.5, inf}, nil,
		func(d *doc) float64 {
			return d.num(` 4 channels: +([\d.]+) MB/s`) / d.num(` 1 channels: +([\d.]+) MB/s`)
		}},
	{"ablations", "§5.2", "without the loiter bound the ping endpoint starves: 0 pings", band{0, 0}, nil,
		func(d *doc) float64 { return d.num(`unbounded: .*MB/s, (\d+) pings`) }},
	{"ablations", "§5.2", "with the loiter bound ping p50 stays within the 4 ms quantum", band{0, 4}, nil,
		func(d *doc) float64 { return d.num(`bounded \(.*p50 ([\d.]+)ms`) }},

	// §6.1: overhead hurts every workload, gap only hurts bursts.
	{"sensitivity", "§6.1", "overhead hurts every workload: the least o+d slowdown > 1", band{1.005, inf}, nil,
		func(d *doc) float64 {
			least := inf
			for _, delta := range []string{"2.000us", "4.000us", "8.000us"} {
				r := d.row("sensitivity", delta)
				least = min(least, r[0], r[2])
			}
			return least
		}},
	{"sensitivity", "§6.1", "gap does not hurt the typical workload: g+8us slowdown <= 1.02", band{1, 1.02}, nil,
		func(d *doc) float64 { return d.row("sensitivity", "8.000us")[1] }},
	{"sensitivity", "§6.1", "gap hurts bursts: burst g+8us slowdown >= 1.5", band{1.5, inf}, nil,
		func(d *doc) float64 { return d.row("sensitivity", "8.000us")[3] }},

	// §7, §8.
	{"via", "§7", "VIA's per-pair VIs are slower than one pooled endpoint (>= 2x)", band{2, inf}, nil,
		func(d *doc) float64 { return d.num(`VIA x([\d.]+)`) }},
	{"via", "§7", "virtual networks load each node's one endpoint once (remaps per node)", band{1, 1}, nil,
		func(d *doc) float64 { return d.row("VIA per-pair", "VN")[2] / d.num(`\((\d+) nodes`) }},
	{"via", "§7", "VIA thrashes the 8 frames: more loads than binding each VI once", band{1.01, inf}, nil,
		func(d *doc) float64 {
			r := d.row("VIA per-pair", "VIA")
			return r[2] / (r[0] * d.num(`\((\d+) nodes`))
		}},
	{"extensions", "§8", "adaptive retransmission timeouts recover bulk bandwidth a short fixed timeout loses", band{1.01, inf}, nil,
		func(d *doc) float64 { return d.num(`adaptive ([\d.]+)`) / d.num(`fixed ([\d.]+)`) }},
	{"extensions", "§8", "piggybacked acks shrink the small-message gap (>= 10%)", band{1.1, inf}, nil,
		func(d *doc) float64 { return d.num(`standalone acks ([\d.]+)`) / d.num(`piggybacked ([\d.]+)`) }},

	// §4.
	{"breakdown", "§4", "host overhead and NI firmware dominate: the wire is <= 10% of a short AM's one-way time", band{0, 10}, nil,
		func(d *doc) float64 { return d.num(`short AM request(?s:.*?)wire +[\d.]+ us +([\d.]+)%`) }},
	{"breakdown", "§4", "the stages decompose the one-way time exactly: |delta| <= 0.01%", band{0, 0.01}, nil,
		func(d *doc) float64 { return slices.Max(absAll(d.nums(`delta ([+-][\d.]+)%`, ""))) }},
	{"breakdown", "§4", "an independent app-side measurement agrees with the recorder (us)", band{0, 0.0005}, nil,
		func(d *doc) float64 {
			return math.Abs(d.num(`short AM request(?s:.*?)end-to-end +([\d.]+) us`) - d.num(`app-side one-way mean ([\d.]+) us`))
		}},
	{"breakdown", "§4", "8 KB bulk is store-and-forward bound: ni-send + wire + remote-ni >= 90%", band{90, 100}, nil,
		func(d *doc) float64 {
			sum := 0.0
			for _, s := range []string{"ni-send", "wire", "remote-ni"} {
				sum += d.num(`8 KB bulk request(?s:.*?)` + s + ` +[\d.]+ us +([\d.]+)%`)
			}
			return sum
		}},
	{"breakdown", "§5", "WRR wait grows with endpoint overcommit: K=16 >= 5x K=1", band{5, inf}, nil,
		func(d *doc) float64 { return d.cell("wrr-wait inflation", "16", "x") }},

	// Extensions.
	{"migrate", "ext.", "live migration under load loses nothing: lost + duplicates + user-level returns = 0", band{0, 0}, nil,
		func(d *doc) float64 {
			return d.num(`lost (\d+)`) + d.num(`duplicates (\d+)`) + d.num(`user-level returns: (\d+)`)
		}},
	{"migrate", "ext.", "every request is answered and served once", band{1, 1}, nil,
		func(d *doc) float64 {
			sent := d.num(`(\d+) sent`)
			return min(d.num(`(\d+) replied`), d.num(`(\d+) served`)) / sent
		}},
	{"migrate", "ext.", "the worst blackout stays a few ms (<= 5 ms)", band{0, 5}, nil,
		func(d *doc) float64 { return slices.Max(d.nums(`-> \d+ +([\d.]+)ms`, "")) }},
	{"faults", "ext.", "recovery to >= 90% of the pre-fault rate", band{90, inf}, nil,
		func(d *doc) float64 { return d.num(`post-recovery \d+ \((\d+)%`) }},
	{"faults", "ext.", "exactly-once end to end: lost + duplicates = 0", band{0, 0}, nil,
		func(d *doc) float64 { return d.num(`lost (\d+)`) + d.num(`duplicates (\d+)`) }},
	{"faults", "ext.", "the spine outage barely dips: worst window in 200-400 ms >= 90% of pre-fault", band{0.9, inf}, nil,
		func(d *doc) float64 {
			return slices.Min(d.nums(`(\d+)`, d.match(`(?m)^ +200ms: ([\d ]+)$`))) / d.num(`pre-fault (\d+)`)
		}},
	{"faults", "ext.", "the node crash halves throughput while heartbeats go silent", band{0.4, 0.6}, nil,
		func(d *doc) float64 {
			return slices.Min(d.nums(`(\d+)`, d.match(`(?m)^ +400ms: ([\d ]+)$`))) / d.num(`pre-fault (\d+)`)
		}},
	{"simperf", "ext.", "every request is answered, in both sections", band{1, 1}, nil,
		func(d *doc) float64 {
			pairs, msgs, replied := d.nums(`pairs=(\d+)`, ""), d.nums(`msgs/client=(\d+)`, ""), d.nums(`replied=(\d+)`, "")
			return min(replied[0]/(pairs[0]*msgs[0]), replied[1]/(pairs[1]*msgs[1]))
		}},
	{"simperf", "ext.", "engine events per message at 16 nodes: 30.7 (EXPERIMENTS), within 10%", band{27.6, 33.8}, nil,
		func(d *doc) float64 { return d.nums(`\(([\d.]+)/msg\)`, "")[0] }},
	{"simperf", "ext.", "engine events per message at 1,024 hosts: 180.5, within 10%", band{162, 199}, nil,
		func(d *doc) float64 { return d.nums(`\(([\d.]+)/msg\)`, "")[1] }},
	{"allreduce", "ext.", "results verified elementwise on every rank", band{1, 1}, nil,
		func(d *doc) float64 { return d.flag(`verified elementwise on every rank: (\w+)`) }},
	{"allreduce", "ext.", "auto picks the best algorithm at every size above its 4 KB binomial cutoff", band{1, 1}, nil,
		func(d *doc) float64 {
			worst := 0.0
			for _, n := range d.col("completion time", "bytes") {
				if n <= 4096 {
					continue // at 1 KB binomial takes 1.22x Rabenseifner's time (EXPERIMENTS.md)
				}
				row := strconv.Itoa(int(n))
				best := d.word("completion time", row, "best")
				worst = max(worst, d.cell("completion time", row, "auto")/d.cell("completion time", row, best))
			}
			return worst
		}},
	{"allreduce", "ext.", "at 1 KB the binomial tree beats the ring (>= 2.5x)", band{2.5, inf}, nil,
		func(d *doc) float64 {
			return d.cell("completion time", "1024", "ring") / d.cell("completion time", "1024", "binomial")
		}},
	{"allreduce", "ext.", "at 1 MB the ring beats the binomial tree (EXPERIMENTS 3.3x; >= 2.5x)", band{2.5, inf}, nil,
		func(d *doc) float64 {
			return d.cell("completion time", "1048576", "binomial") / d.cell("completion time", "1048576", "ring")
		}},
	{"allreduce", "ext.", "the leaf-sorted ring beats rank order at 1 MB (EXPERIMENTS 1.4x; >= 1.2x)", band{1.2, inf}, nil,
		func(d *doc) float64 {
			return d.cell("completion time", "1048576", "ring-flat") / d.cell("completion time", "1048576", "ring")
		}},
	{"allreduce", "ext.", "SGD overlap shortens the step (EXPERIMENTS 31.2%; >= 25%)", band{25, inf}, nil,
		func(d *doc) float64 { return d.num(`shortens the step by ([\d.]+)%`) }},
	{"tenants", "ext.", "WRR shares track 4:2:1 (57/29/14%): every tenant within 5 points, both cycles", band{0, 5}, nil,
		func(d *doc) float64 {
			worst := 0.0
			for _, cycle := range []string{"-- cycle 1 --", "-- cycle 2 --"} {
				for tenant, ideal := range map[string]float64{"gold": 400.0 / 7, "silver": 200.0 / 7, "bronze": 100.0 / 7} {
					worst = max(worst, math.Abs(d.cell(cycle, tenant, "svc_pct")-ideal))
				}
			}
			return worst
		}},
	{"tenants", "ext.", "the loiter budget binds: loiter expiries in the hundreds each cycle", band{100, inf}, nil,
		func(d *doc) float64 { return slices.Min(d.nums(`loiter expiries: (\d+)`, "")) }},
	{"tenants", "ext.", "quota, admission and isolation each surface as a typed error", band{3, 3}, nil,
		func(d *doc) float64 { return d.count(`(?m)^(?:quota|admission|isolation): +vnet: `) }},
	{"tenants", "ext.", "teardown returns node 0 to load 0 after both cycles", band{0, 0}, nil,
		func(d *doc) float64 { return sum(d.nums(`node0 load (\d+)/`, "")) }},

	// serve owns the graceful-degradation claims: goodput plateaus under
	// overload with the reliability layer on, also under fault churn, and
	// collapses without it.
	{"serve", "ext.", "baseline plateau: goodput at 3x offered holds >= 85% of peak (EXPERIMENTS 90%)", band{85, 100}, nil,
		func(d *doc) float64 { return d.num(`(\d+)% of peak.* — baseline`) }},
	{"serve", "ext.", "baseline p99 at 3x stays under the 20 ms deadline", band{0, 20}, nil,
		func(d *doc) float64 { return d.num(`p99 +([\d.]+)ms — baseline`) }},
	{"serve", "ext.", "baseline knee: >= 90% good at 1x (EXPERIMENTS 93.9%)", band{90, 100}, nil,
		func(d *doc) float64 { return d.cell("-- baseline:", "1.00x", "good%") }},
	{"serve", "ext.", "overload is refused at admission: server NACKs grow with the excess load (2x -> 3x, ratio of ratios)", band{0.8, 1.25}, nil,
		func(d *doc) float64 {
			c := d.num(`(?s)-- baseline:.*?capacity estimate: (\d+)`)
			excess := (d.cell("-- baseline:", "3.00x", "offered/s") - c) / (d.cell("-- baseline:", "2.00x", "offered/s") - c)
			return d.cell("-- baseline:", "3.00x", "srvshed") / d.cell("-- baseline:", "2.00x", "srvshed") / excess
		}},
	{"serve", "ext.", "ablation (no reliability layer) collapses: <= 5% of peak at 3x", band{0, 5}, nil,
		func(d *doc) float64 { return d.num(`(\d+)% of peak.* — ablate`) }},
	{"serve", "ext.", "fault churn: the plateau holds >= 80% of peak at 3x (EXPERIMENTS 87%)", band{80, 100}, nil,
		func(d *doc) float64 { return d.num(`(\d+)% of peak.* — faultchurn`) }},
	{"serve", "ext.", "hot key: goodput degrades to ~49% at 1x instead of collapsing", band{40, 60}, nil,
		func(d *doc) float64 { return d.cell("-- hotkey:", "1.00x", "good%") }},
	{"serve", "ext.", "incast collapses past the knee: <= 5% good at 2x", band{0, 5}, nil,
		func(d *doc) float64 { return d.cell("-- incast:", "2.00x", "good%") }},
	{"serve", "ext.", "parameter server: >= 90% good at its own capacity (EXPERIMENTS 96.8%)", band{90, 100}, nil,
		func(d *doc) float64 { return d.cell("-- ps:", "1.00x", "good%") }},

	// tailat owns the attribution claims; share of the class a stage
	// dominates, 0 unless that stage leads the class.
	{"tailat", "ext.", "incast's good requests are dominated by fan-in (>= 90%)", band{90, 100}, nil,
		func(d *doc) float64 { return lead(d, "-- incast:", "good", "fan-in") }},
	{"tailat", "ext.", "faultchurn's deadline misses are led by retry/backoff (>= 40%)", band{40, 100}, nil,
		func(d *doc) float64 { return lead(d, "-- faultchurn:", "missed", "backoff") }},
	{"tailat", "ext.", "baseline's good requests are led by admission-queue wait (>= 60%)", band{60, 100}, nil,
		func(d *doc) float64 { return lead(d, "-- baseline:", "good", "admit-wait") }},
	{"tailat", "ext.", "hot key's good requests are led by service time on the saturated shard (>= 60%)", band{60, 100}, nil,
		func(d *doc) float64 { return lead(d, "-- hotkey:", "good", "service") }},
	{"tailat", "ext.", "what the hot shard sheds is led by rpc-wait fast-fail stubs (>= 80%)", band{80, 100}, nil,
		func(d *doc) float64 { return lead(d, "-- hotkey:", "shed", "rpc-wait") }},
}

// vnperfGolden is the one results_*.txt no row writes: benchmarks/vnperf's
// virt_digest lines.
const vnperfGolden = "results_vnperf_digests.txt"

var refForm = regexp.MustCompile(`^(Fig\. \d|§\d+(\.\d+)*|ext\.)$`)

// TestPaperClaims checks every claim against the committed goldens. It runs
// no simulation, so it runs under -short too.
func TestPaperClaims(t *testing.T) {
	docs := map[string]*doc{}
	for _, c := range claims {
		d := docs[c.row]
		if d == nil {
			d = &doc{name: "results_" + c.row + ".txt", text: string(golden(t, "results_"+c.row+".txt"))}
			docs[c.row] = d
		}
		t.Run(c.row+" "+c.ref, func(t *testing.T) {
			d.t = t
			if !refForm.MatchString(c.ref) {
				t.Fatalf("%q: ref %q names no figure or section (want \"Fig. N\", \"§N.N\" or \"ext.\")", c.what, c.ref)
			}
			v := c.get(d)
			t.Logf("%s: %g, band %v", c.what, v, c.in)
			switch {
			case c.miss != nil && c.miss.holds(v):
				t.Errorf("%s: %q is %g, inside the paper's band %v: the miss is closed; make that the row's band and drop the mark",
					d.name, c.what, v, *c.miss)
			case !c.in.holds(v):
				t.Errorf("%s: %q is %g, outside its band %v", d.name, c.what, v, c.in)
			}
		})
	}
}

// TestEveryRowHasAClaim is the claims census: every row of the experiment
// table states at least one claim and has a golden, every claim names a
// row, and every golden belongs to a row. A row with nothing to claim goes,
// with its golden.
func TestEveryRowHasAClaim(t *testing.T) {
	rows := map[string]bool{}
	for _, ex := range bench.Experiments {
		rows[ex.Name] = true
	}
	claimed := map[string]bool{}
	for _, c := range claims {
		claimed[c.row] = true
		if !rows[c.row] {
			t.Errorf("a claim names %q, which is no row of bench.Experiments: %q", c.row, c.what)
		}
	}
	for _, ex := range bench.Experiments {
		if !claimed[ex.Name] {
			t.Errorf("row %q has no claim: give it one in claims (a paper figure or section, or an EXPERIMENTS.md extension claim, with a band), or delete the row and its golden", ex.Name)
		}
		if _, err := os.Stat(filepath.Join("..", "..", "results_"+ex.Name+".txt")); err != nil {
			t.Errorf("row %q has no golden: %v", ex.Name, err)
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results_*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		name := strings.TrimSuffix(strings.TrimPrefix(base, "results_"), ".txt")
		if base != vnperfGolden && !rows[name] {
			t.Errorf("%s belongs to no row of bench.Experiments: delete it, or add its row", base)
		}
	}
}

// doc is one golden as the claims read it. Every accessor fails the claim's
// test when the golden has no such line, rather than return a number.
type doc struct {
	t          *testing.T
	name, text string
}

// num parses the first submatch of the first match of re in the golden.
func (d *doc) num(re string) float64 {
	d.t.Helper()
	return d.parse(d.match(re))
}

// match returns the first submatch of the first match of re, unparsed.
func (d *doc) match(re string) string {
	d.t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(d.text)
	if m == nil {
		d.t.Fatalf("%s: no line matches %s", d.name, re)
	}
	return m[1]
}

// nums parses the first submatch of every match of re in s, or in the
// golden when s is "".
func (d *doc) nums(re, s string) []float64 {
	d.t.Helper()
	if s == "" {
		s = d.text
	}
	var out []float64
	for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(s, -1) {
		out = append(out, d.parse(m[1]))
	}
	if out == nil {
		d.t.Fatalf("%s: nothing matches %s", d.name, re)
	}
	return out
}

// count is the number of matches of re in the golden.
func (d *doc) count(re string) float64 {
	return float64(len(regexp.MustCompile(re).FindAllStringIndex(d.text, -1)))
}

// flag is 1 for a submatch "true", 0 for anything else.
func (d *doc) flag(re string) float64 {
	d.t.Helper()
	if d.match(re) == "true" {
		return 1
	}
	return 0
}

// dur parses the first submatch of re as a duration with a unit (us, ms,
// s), in microseconds.
func (d *doc) dur(re string) float64 {
	d.t.Helper()
	s := d.match(re)
	for _, u := range []struct {
		suffix string
		us     float64
	}{{"us", 1}, {"ms", 1e3}, {"s", 1e6}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			return d.parse(v) * u.us
		}
	}
	d.t.Fatalf("%s: %q has no unit", d.name, s)
	return 0
}

// parse reads a printed number, dropping a trailing % or x.
func (d *doc) parse(s string) float64 {
	d.t.Helper()
	v, err := strconv.ParseFloat(strings.TrimRight(s, "%x"), 64)
	if err != nil {
		d.t.Fatalf("%s: %q is not a number", d.name, s)
	}
	return v
}

// section returns the golden's lines from the first one containing s.
func (d *doc) section(s string) []string {
	d.t.Helper()
	lines := strings.Split(d.text, "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, s) })
	if at < 0 {
		d.t.Fatalf("%s: no section %q", d.name, s)
	}
	return lines[at:]
}

// table finds the first line containing section, then the first line from
// there whose fields include col (the table's header); it returns the
// header's fields and the lines under it up to the next blank line.
func (d *doc) table(section, col string) (header []string, body []string) {
	d.t.Helper()
	lines := d.section(section)
	for i := range lines {
		if f := strings.Fields(lines[i]); slices.Contains(f, col) {
			end := slices.Index(lines[i+1:], "")
			if end < 0 {
				end = len(lines) - i - 1
			}
			return f, lines[i+1 : i+1+end]
		}
	}
	d.t.Fatalf("%s: no column %q under %q", d.name, col, section)
	return nil, nil
}

// word is the field in column col of the table row labelled row.
func (d *doc) word(section, row, col string) string {
	d.t.Helper()
	header, body := d.table(section, col)
	j := slices.Index(header, col)
	for _, l := range body {
		if f := strings.Fields(l); len(f) > j && f[0] == row {
			return f[j]
		}
	}
	d.t.Fatalf("%s: no row %q under %q", d.name, row, section)
	return ""
}

// cell is word, parsed.
func (d *doc) cell(section, row, col string) float64 {
	d.t.Helper()
	return d.parse(d.word(section, row, col))
}

// col parses the table's column col, one number per row whose label is a
// number (a size or a client count); lines under the table that are not
// such rows are skipped.
func (d *doc) col(section, col string) []float64 {
	d.t.Helper()
	header, body := d.table(section, col)
	j := slices.Index(header, col)
	var out []float64
	for _, l := range body {
		f := strings.Fields(l)
		if _, err := strconv.ParseFloat(f[0], 64); err == nil && len(f) > j {
			out = append(out, d.parse(f[j]))
		}
	}
	return out
}

// row parses the numeric fields after the label of the first line labelled
// label at or after the first line containing section, for tables whose
// header does not line up with its rows.
func (d *doc) row(section, label string) []float64 {
	d.t.Helper()
	for _, l := range d.section(section) {
		if f := strings.Fields(l); len(f) > 0 && f[0] == label {
			var out []float64
			for _, w := range f[1:] {
				if v, err := strconv.ParseFloat(strings.TrimRight(w, "%x"), 64); err == nil {
					out = append(out, v)
				}
			}
			return out
		}
	}
	d.t.Fatalf("%s: no row %q under %q", d.name, label, section)
	return nil
}

// halfPower is the message size at which AM reaches half its 8 KB
// bandwidth, interpolated linearly between the sizes the table measures.
func halfPower(d *doc) float64 {
	sizes, bw := d.col("transfer bandwidth", "bytes"), d.col("transfer bandwidth", "AM")
	half := bw[len(bw)-1] / 2
	for i := 1; i < len(bw); i++ {
		if bw[i] >= half {
			return sizes[i-1] + (half-bw[i-1])/(bw[i]-bw[i-1])*(sizes[i]-sizes[i-1])
		}
	}
	d.t.Fatalf("%s: AM never reaches half its 8 KB bandwidth", d.name)
	return 0
}

// npbSix are the P=32 speedups on machine of the six kernels the NOW's
// bisection does not limit.
func npbSix(d *doc, machine string) []float64 {
	var out []float64
	for _, k := range []string{"EP", "MG", "CG", "LU", "BT", "SP"} {
		out = append(out, d.cell(machine, k, "P=32"))
	}
	return out
}

// firstBelow is the first client count at which config's aggregate falls
// below its one-client value by more than slack (in the table's units).
func firstBelow(d *doc, section, config string, slack float64) float64 {
	clients, agg := d.col(section, "clients"), d.col(section, config)
	for i := range agg {
		if agg[i] < agg[0]-slack {
			return clients[i]
		}
	}
	return inf
}

// shareSkew is how far client 0's throughput times the client count strays
// from the one-client throughput, at worst over 2..upTo clients, as a
// fraction: 0 when every client gets an equal share.
func shareSkew(d *doc, config string, upTo float64) float64 {
	clients, per := d.col("per-client", "clients"), d.col("per-client", config)
	worst := 0.0
	for i := 1; i < len(clients) && clients[i] <= upTo; i++ {
		worst = max(worst, math.Abs(per[i]*clients[i]/per[0]-1))
	}
	return worst
}

// worstShare is the least, over 2..upTo clients, of client 0's throughput
// times the client count over the one-client throughput: 1 when every
// client gets an equal share.
func worstShare(d *doc, config string, upTo float64) float64 {
	clients, per := d.col("per-client", "clients"), d.col("per-client", config)
	worst := inf
	for i := 1; i < len(clients) && clients[i] <= upTo; i++ {
		worst = min(worst, per[i]*clients[i]/per[0])
	}
	return worst
}

// frameRetention is the mean, over client counts past 8, of the 8-frame
// aggregate over the 96-frame one for server model ST or MT.
func frameRetention(d *doc, model string) float64 {
	clients, few, many := d.col("aggregate", "clients"), d.col("aggregate", model+"-8"), d.col("aggregate", model+"-96")
	var r []float64
	for i := range clients {
		if clients[i] > 8 {
			r = append(r, few[i]/many[i])
		}
	}
	return mean(r)
}

// lead is the share of class's requests in scenario that stage dominates,
// or 0 when another stage dominates more of them.
func lead(d *doc, scenario, class, stage string) float64 {
	d.t.Helper()
	m := regexp.MustCompile(`(?s)` + regexp.QuoteMeta(scenario) + `.*?class ` + class + ` .*?dominant: +([\w-]+) ([\d.]+)%`).FindStringSubmatch(d.text)
	if m == nil {
		d.t.Fatalf("%s: no %s class under %q", d.name, class, scenario)
	}
	if m[1] != stage {
		return 0
	}
	return d.parse(m[2])
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func absAll(v []float64) []float64 {
	for i := range v {
		v[i] = math.Abs(v[i])
	}
	return v
}
