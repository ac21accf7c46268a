package fault

import (
	"math/rand"
	"testing"

	"virtnet/internal/sim"
)

// RandomPlan must be deterministic per seed, bounded by its config, and
// round-trip through the schedule-string grammar.
func TestRandomPlanDeterministicAndBounded(t *testing.T) {
	cfg := ChaosConfig{Events: 40, Horizon: 2 * sim.Second, MaxOutage: 100 * sim.Millisecond,
		Nodes: 8, Leaves: 2, Spines: 2, NoCrashBelow: 2}
	a := RandomPlan(rand.New(rand.NewSource(99)), cfg)
	b := RandomPlan(rand.New(rand.NewSource(99)), cfg)
	if a.String() != b.String() {
		t.Fatal("same seed produced different plans")
	}
	if c := RandomPlan(rand.New(rand.NewSource(100)), cfg); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans")
	}
	if len(a.Events) != 40 {
		t.Fatalf("events = %d", len(a.Events))
	}
	prev := sim.Duration(-1)
	for _, ev := range a.Events {
		if ev.At < prev {
			t.Fatalf("events not sorted: %v after %v", ev.At, prev)
		}
		prev = ev.At
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event outside horizon: %v", ev)
		}
		if (ev.Kind == NodeCrash || ev.Kind == NICReboot) && ev.A < cfg.NoCrashBelow {
			t.Fatalf("protected node crashed: %v", ev)
		}
		if ev.Kind == NodeCrash && ev.Dur <= 0 {
			t.Fatalf("chaos crash without restart: %v", ev)
		}
	}
	reparsed, err := Parse(a.String())
	if err != nil {
		t.Fatalf("plan does not round-trip: %v\n%s", err, a.String())
	}
	if reparsed.String() != a.String() {
		t.Fatalf("round-trip changed the plan:\n%s\n%s", a.String(), reparsed.String())
	}
}

// A config that protects every node must never emit crash or reboot
// events.
func TestRandomPlanNoCrashMode(t *testing.T) {
	cfg := ChaosConfig{Events: 60, Nodes: 4, NoCrashBelow: 4}
	pl := RandomPlan(rand.New(rand.NewSource(7)), cfg)
	for _, ev := range pl.Events {
		if ev.Kind == NodeCrash || ev.Kind == NICReboot {
			t.Fatalf("crash event with every node protected: %v", ev)
		}
	}
	if got := pl.CrashTargets(); len(got) != 0 {
		t.Fatalf("crash targets = %v", got)
	}
}
