// Package fault is the deterministic fault-injection subsystem: a parsed,
// seed-reproducible schedule of timed fabric and host failures (FaultPlan)
// that drives the failure hooks of netsim (switch/link down and repair,
// Gilbert–Elliott correlated loss bursts, per-packet corruption), nic
// (firmware reboot with channel-reset handshake) and hostos (whole-node
// crash and restart).
//
// Everything an applied plan does is scheduled on the cluster's event
// engine, and every random draw the faults cause (burst-loss sojourns, loss
// and corruption coin flips) comes from the engine's seeded PRNG — so the
// same seed and plan replay the exact same failure history, packet for
// packet. That is what lets the robustness experiments diff their whole
// output across runs (§3.2's error model, exercised end to end).
//
// Plans are written as a compact schedule string, items comma-separated:
//
//	spine:1@0.2s+150ms        spine switch 1 down at 200 ms, repaired 150 ms later
//	link:3-7@0.2s+0.5s        uplink leaf 3 ↔ spine 7 down, repaired after 0.5 s
//	hostlink:4@1s             host 4's access link down at 1 s (no repair)
//	leaf:2@0.3s+0.1s          leaf switch 2 (all its links) down for 100 ms
//	burst:5@0.1s+0.4s         Gilbert–Elliott burst loss on host 5's links
//	burst:all@0.1s+0.4s:0.8   ... on every link, bad-state loss prob 0.8
//	corrupt:0.001@0.2s+0.3s   0.1 % per-packet corruption between 0.2 s and 0.5 s
//	reboot:node6@0.5s+2ms     NI firmware reboot on node 6, 2 ms outage
//	crash:node9@1s            node 9 crashes at 1 s and stays down
//	crash:node9@1s+2s         ... restarts (cold, empty) 2 s later
//
// Times accept s, ms, us and ns suffixes. Node, link and switch indices are
// reduced modulo the cluster's actual dimensions, so a plan written for one
// topology applies to any other.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// Kind enumerates fault event types.
type Kind int

const (
	// SpineDown fails spine switch A for Dur (0 = forever).
	SpineDown Kind = iota
	// UplinkDown fails the leaf A ↔ spine B uplink pair.
	UplinkDown
	// HostLinkDown fails host A's access link.
	HostLinkDown
	// LeafDown fails leaf switch A (all host links and uplinks through it).
	LeafDown
	// BurstLoss runs a Gilbert–Elliott loss process on host A's links
	// (A < 0: every link) for Dur; P > 0 overrides the bad-state loss prob.
	BurstLoss
	// Corrupt flips per-packet corruption with probability P for Dur.
	Corrupt
	// NICReboot reboots node A's NI firmware with outage Dur.
	NICReboot
	// NodeCrash crashes node A; if Dur > 0 the node restarts after it.
	NodeCrash
)

var kindNames = map[Kind]string{
	SpineDown:    "spine",
	UplinkDown:   "link",
	HostLinkDown: "hostlink",
	LeafDown:     "leaf",
	BurstLoss:    "burst",
	Corrupt:      "corrupt",
	NICReboot:    "reboot",
	NodeCrash:    "crash",
}

// DefaultRebootOutage is the firmware reboot outage when a plan gives none.
const DefaultRebootOutage = 2 * sim.Millisecond

// Event is one scheduled fault: it starts At after the plan is applied and
// (for repairable kinds) is undone Dur later.
type Event struct {
	Kind Kind
	At   sim.Duration
	Dur  sim.Duration
	A, B int
	P    float64
}

// String renders the event in the schedule-string grammar.
func (ev Event) String() string {
	var b strings.Builder
	b.WriteString(kindNames[ev.Kind])
	b.WriteByte(':')
	switch ev.Kind {
	case UplinkDown:
		fmt.Fprintf(&b, "%d-%d", ev.A, ev.B)
	case Corrupt:
		fmt.Fprintf(&b, "%g", ev.P)
	case NICReboot, NodeCrash:
		fmt.Fprintf(&b, "node%d", ev.A)
	case BurstLoss:
		if ev.A < 0 {
			b.WriteString("all")
		} else {
			fmt.Fprintf(&b, "%d", ev.A)
		}
	default:
		fmt.Fprintf(&b, "%d", ev.A)
	}
	fmt.Fprintf(&b, "@%s", ev.At)
	if ev.Dur > 0 {
		fmt.Fprintf(&b, "+%s", ev.Dur)
	}
	if ev.Kind == BurstLoss && ev.P > 0 {
		fmt.Fprintf(&b, ":%g", ev.P)
	}
	return b.String()
}

// Plan is an ordered fault schedule.
type Plan struct {
	Events []Event
}

// String renders the plan as a schedule string that Parse accepts.
func (pl *Plan) String() string {
	parts := make([]string, len(pl.Events))
	for i, ev := range pl.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ",")
}

// CrashTargets returns the distinct node indices (pre-clamping) the plan
// crashes, restarted or not — their resident endpoints do not survive, so
// accounting layers treat those nodes as lost either way.
func (pl *Plan) CrashTargets() []int {
	seen := map[int]bool{}
	var out []int
	for _, ev := range pl.Events {
		if ev.Kind == NodeCrash && !seen[ev.A] {
			seen[ev.A] = true
			out = append(out, ev.A)
		}
	}
	sort.Ints(out)
	return out
}

// maxDur is the longest duration a plan may name, about 127 years of
// virtual time: an item's At+Dur stays inside sim.Duration's range, and so
// does every duration String prints for a parsed plan.
const maxDur = 4e9 * sim.Second

// ParseDur parses a duration in the schedule-string grammar ("0.2s",
// "150ms", "50us", "300ns"). NaN, infinities and durations past maxDur are
// errors. The control plane reuses it for advance ops so scripts and fault
// schedules share one duration syntax.
func ParseDur(s string) (sim.Duration, error) {
	unit := sim.Duration(0)
	num := s
	switch {
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		unit, num = sim.Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = sim.Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("fault: duration %q needs a unit (s/ms/us/ns)", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	d := f * float64(unit)
	if err != nil || !(d >= 0 && d <= float64(maxDur)) {
		return 0, fmt.Errorf("fault: bad duration %q (want 0 to %v)", s, maxDur)
	}
	return sim.Duration(d), nil
}

// Parse builds a Plan from a compact schedule string (see the package
// comment for the grammar). The empty string parses to an empty plan.
func Parse(s string) (*Plan, error) {
	pl := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return pl, nil
	}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		kindTarget, when, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("fault: item %q lacks @time", item)
		}
		kindStr, target, ok := strings.Cut(kindTarget, ":")
		if !ok {
			return nil, fmt.Errorf("fault: item %q lacks kind:target", item)
		}
		var ev Event
		found := false
		for k, name := range kindNames {
			if name == kindStr {
				ev.Kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fault: unknown kind %q in %q", kindStr, item)
		}

		// when = T[+D][:extra]
		var extra string
		if ev.Kind == BurstLoss {
			when, extra, _ = strings.Cut(when, ":")
		}
		atStr, durStr, hasDur := strings.Cut(when, "+")
		at, err := ParseDur(atStr)
		if err != nil {
			return nil, err
		}
		ev.At = at
		if hasDur {
			d, err := ParseDur(durStr)
			if err != nil {
				return nil, err
			}
			ev.Dur = d
		}

		switch ev.Kind {
		case UplinkDown:
			lStr, sStr, ok := strings.Cut(target, "-")
			if !ok {
				return nil, fmt.Errorf("fault: link target %q is not leaf-spine", target)
			}
			if ev.A, err = strconv.Atoi(lStr); err != nil {
				return nil, fmt.Errorf("fault: bad leaf index %q", lStr)
			}
			if ev.B, err = strconv.Atoi(sStr); err != nil {
				return nil, fmt.Errorf("fault: bad spine index %q", sStr)
			}
		case Corrupt:
			if ev.P, err = strconv.ParseFloat(target, 64); err != nil || !(ev.P >= 0 && ev.P <= 1) {
				return nil, fmt.Errorf("fault: bad corruption probability %q", target)
			}
		case NICReboot, NodeCrash:
			numStr := strings.TrimPrefix(target, "node")
			if ev.A, err = strconv.Atoi(numStr); err != nil {
				return nil, fmt.Errorf("fault: bad node target %q", target)
			}
		case BurstLoss:
			if target == "all" {
				ev.A = -1
			} else if ev.A, err = strconv.Atoi(target); err != nil || ev.A < 0 {
				return nil, fmt.Errorf("fault: bad burst target %q", target)
			}
			if extra != "" {
				if ev.P, err = strconv.ParseFloat(extra, 64); err != nil || !(ev.P > 0 && ev.P <= 1) {
					return nil, fmt.Errorf("fault: bad burst loss probability %q", extra)
				}
			}
		default: // SpineDown, HostLinkDown, LeafDown
			if ev.A, err = strconv.Atoi(target); err != nil {
				return nil, fmt.Errorf("fault: bad index %q in %q", target, item)
			}
		}
		pl.Events = append(pl.Events, ev)
	}
	return pl, nil
}

// mod reduces an index into [0, n).
func mod(i, n int) int {
	if n <= 0 {
		return 0
	}
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Apply schedules every event of the plan onto the cluster's engine(s),
// relative to the current virtual time (call it before running the
// workload). Indices are reduced modulo the cluster's dimensions so plans
// are portable across topologies.
//
// On a sharded cluster, fabric-wide faults (switch and uplink outages,
// all-link burst loss, corruption) are replicated onto every shard's
// network replica at the same virtual instant — each replica checks those
// links on the paths it charges, so they must all agree. Host-scoped
// faults (access-link outages, host burst loss, NI reboots, node crashes)
// touch state that only the owning shard's replica ever consults, so they
// are scheduled once, on the owning node's engine. With one shard both
// cases degenerate to exactly the classic event sequence.
func (pl *Plan) Apply(c *hostos.Cluster) {
	topo := c.ShardNet(0) // every replica has the same shape
	cfg := topo.Config()
	// fabric replicates a mutation onto every shard's replica; owned
	// schedules it only on host h's shard. Apply runs while the shards are
	// parked at a common barrier, so same-offset schedules land at the same
	// virtual instant everywhere.
	fabric := func(at sim.Duration, fn func(net *netsim.Network)) {
		for s := 0; s < c.Shards(); s++ {
			net := c.ShardNet(s)
			c.ShardEngine(s).AfterFunc(at, func() { fn(net) })
		}
	}
	owned := func(h netsim.NodeID, at sim.Duration, fn func(net *netsim.Network)) {
		net := c.NetFor(h)
		c.EngineFor(h).AfterFunc(at, func() { fn(net) })
	}
	for _, ev := range pl.Events {
		ev := ev
		switch ev.Kind {
		case SpineDown:
			s := mod(ev.A, topo.TotalSpines())
			fabric(ev.At, func(net *netsim.Network) { net.SetSpineDown(s, true) })
			if ev.Dur > 0 {
				fabric(ev.At+ev.Dur, func(net *netsim.Network) { net.SetSpineDown(s, false) })
			}
		case UplinkDown:
			l := mod(ev.A, topo.Leaves())
			s := mod(ev.B, cfg.Spines)
			fabric(ev.At, func(net *netsim.Network) { net.SetUplinkDown(l, s, true) })
			if ev.Dur > 0 {
				fabric(ev.At+ev.Dur, func(net *netsim.Network) { net.SetUplinkDown(l, s, false) })
			}
		case HostLinkDown:
			h := netsim.NodeID(mod(ev.A, topo.NumHosts()))
			owned(h, ev.At, func(net *netsim.Network) { net.SetHostLinkDown(h, true) })
			if ev.Dur > 0 {
				owned(h, ev.At+ev.Dur, func(net *netsim.Network) { net.SetHostLinkDown(h, false) })
			}
		case LeafDown:
			l := mod(ev.A, topo.Leaves())
			fabric(ev.At, func(net *netsim.Network) { net.SetLeafDown(l, true) })
			if ev.Dur > 0 {
				fabric(ev.At+ev.Dur, func(net *netsim.Network) { net.SetLeafDown(l, false) })
			}
		case BurstLoss:
			bp := netsim.DefaultBurstParams()
			if ev.P > 0 {
				bp.LossBad = ev.P
			}
			if ev.A < 0 {
				fabric(ev.At, func(net *netsim.Network) { net.SetAllBurstLoss(bp, true) })
				if ev.Dur > 0 {
					fabric(ev.At+ev.Dur, func(net *netsim.Network) { net.SetAllBurstLoss(bp, false) })
				}
			} else {
				h := netsim.NodeID(mod(ev.A, topo.NumHosts()))
				owned(h, ev.At, func(net *netsim.Network) { net.SetHostBurstLoss(h, bp, true) })
				if ev.Dur > 0 {
					owned(h, ev.At+ev.Dur, func(net *netsim.Network) { net.SetHostBurstLoss(h, bp, false) })
				}
			}
		case Corrupt:
			p := ev.P
			fabric(ev.At, func(net *netsim.Network) { net.SetCorruptProb(p) })
			if ev.Dur > 0 {
				fabric(ev.At+ev.Dur, func(net *netsim.Network) { net.SetCorruptProb(0) })
			}
		case NICReboot:
			n := c.Nodes[mod(ev.A, len(c.Nodes))]
			outage := ev.Dur
			if outage <= 0 {
				outage = DefaultRebootOutage
			}
			n.E.AfterFunc(ev.At, func() { n.NIC.Reboot(outage) })
		case NodeCrash:
			n := c.Nodes[mod(ev.A, len(c.Nodes))]
			n.E.AfterFunc(ev.At, func() { n.Crash() })
			if ev.Dur > 0 {
				n.E.AfterFunc(ev.At+ev.Dur, func() { n.Restart() })
			}
		}
	}
}
