package fault

import (
	"math/rand"

	"virtnet/internal/sim"
)

// ChaosConfig parameterizes RandomPlan's fault mix.
type ChaosConfig struct {
	// Events is how many fault events to generate.
	Events int
	// Horizon bounds event start times: every At falls in [0, Horizon).
	Horizon sim.Duration
	// MaxOutage bounds repairable outages (links, switches, bursts,
	// corruption windows); every Dur falls in [MaxOutage/10, MaxOutage].
	MaxOutage sim.Duration
	// Nodes, Leaves, Spines describe the topology being tormented.
	Nodes, Leaves, Spines int
	// NoCrashBelow protects nodes [0, NoCrashBelow) from crashes and
	// reboots — the home node and any server nodes whose state the soak's
	// invariant checks depend on.
	NoCrashBelow int
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.Events <= 0 {
		cfg.Events = 20
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = sim.Second
	}
	if cfg.MaxOutage <= 0 {
		cfg.MaxOutage = 50 * sim.Millisecond
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Leaves <= 0 {
		cfg.Leaves = 1
	}
	if cfg.Spines <= 0 {
		cfg.Spines = 1
	}
	return cfg
}

// RandomPlan generates a seeded random fault schedule: the chaos half of
// the vnstress -chaos soak. All randomness comes from rng, so one seed
// yields one byte-identical plan (its String() round-trips through Parse),
// and events come out sorted by start time. The mix leans toward transient
// fabric faults (downed links and switches, loss and corruption bursts)
// with crashes and firmware reboots mixed in. Crashed nodes always restart
// (Dur > 0): chaos soaks want churn, not attrition.
func RandomPlan(rng *rand.Rand, cfg ChaosConfig) *Plan {
	cfg = cfg.withDefaults()
	dur := func() sim.Duration {
		lo := cfg.MaxOutage / 10
		if lo <= 0 {
			lo = 1
		}
		return lo + sim.Duration(rng.Int63n(int64(cfg.MaxOutage-lo)+1))
	}
	crashable := func() (int, bool) {
		if cfg.NoCrashBelow >= cfg.Nodes {
			return 0, false
		}
		return cfg.NoCrashBelow + rng.Intn(cfg.Nodes-cfg.NoCrashBelow), true
	}
	pl := &Plan{}
	for len(pl.Events) < cfg.Events {
		ev := Event{At: sim.Duration(rng.Int63n(int64(cfg.Horizon))), Dur: dur()}
		switch pick := rng.Intn(10); {
		case pick < 2:
			ev.Kind = HostLinkDown
			ev.A = rng.Intn(cfg.Nodes)
		case pick < 4:
			ev.Kind = BurstLoss
			ev.A = rng.Intn(cfg.Nodes)
			if rng.Intn(4) == 0 {
				ev.A = -1 // cluster-wide burst
			}
		case pick < 5:
			ev.Kind = Corrupt
			ev.P = 0.001 + rng.Float64()*0.01
		case pick < 6 && cfg.Spines > 1:
			// Only with spine redundancy: a downed sole spine is a blackout,
			// not chaos.
			ev.Kind = SpineDown
			ev.A = rng.Intn(cfg.Spines)
		case pick < 7 && cfg.Spines > 1:
			ev.Kind = UplinkDown
			ev.A = rng.Intn(cfg.Leaves)
			ev.B = rng.Intn(cfg.Spines)
		case pick < 8:
			a, ok := crashable()
			if !ok {
				continue
			}
			ev.Kind = NICReboot
			ev.A = a
			ev.Dur = DefaultRebootOutage
		case pick < 9:
			a, ok := crashable()
			if !ok {
				continue
			}
			ev.Kind = NodeCrash
			ev.A = a
		default:
			ev.Kind = HostLinkDown
			ev.A = rng.Intn(cfg.Nodes)
		}
		pl.Events = append(pl.Events, ev)
	}
	// Sort by start time (stably, so equal-time events keep generation
	// order) for readable schedule strings and deterministic application.
	for i := 1; i < len(pl.Events); i++ {
		for j := i; j > 0 && pl.Events[j].At < pl.Events[j-1].At; j-- {
			pl.Events[j], pl.Events[j-1] = pl.Events[j-1], pl.Events[j]
		}
	}
	return pl
}
