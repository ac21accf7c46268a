package bench

import (
	"testing"

	"virtnet/internal/sim"
)

// tinyServe runs one small serving point (64 hosts, 2 shards) quickly.
func tinyServe(t *testing.T, scenario string, factor float64, ablate bool) serveResult {
	t.Helper()
	res, err := runServePoint(serveConfig{
		Scenario: scenario, Factor: factor,
		Hosts: 64, Servers: 8, Clients: 16, Shards: 2, Seed: 11,
		Ablate: ablate,
	})
	if err != nil {
		t.Fatalf("%s@%.2fx: %v", scenario, factor, err)
	}
	return res
}

func TestServePointScenariosLightLoad(t *testing.T) {
	for _, scn := range []string{"baseline", "faultchurn", "elephant", "straggler", "mmpp", "interference", "gateway", "ps"} {
		res := tinyServe(t, scn, 0.5, false)
		if res.SLO.Offered == 0 {
			t.Errorf("%s: no load offered", scn)
			continue
		}
		if f := res.SLO.GoodputFrac(); f < 0.80 {
			t.Errorf("%s: goodput %.1f%% at 0.5x capacity, want ≥80%% (%s)",
				scn, 100*f, res.SLO.Line(serveWindow))
		}
	}
}

// Hot-key skew saturates the hot key's shard well before aggregate
// capacity: goodput degrades (the hot shard sheds) but p99 of what does
// complete stays bounded by admission control.
func TestServeHotKeySheddingBoundsTail(t *testing.T) {
	res := tinyServe(t, "hotkey", 0.5, false)
	if res.SLO.Shed == 0 {
		t.Fatalf("hot shard never shed at 0.5x: %s", res.SLO.Line(serveWindow))
	}
	if f := res.SLO.GoodputFrac(); f < 0.30 {
		t.Fatalf("hotkey goodput %.1f%%, want ≥30%%", 100*f)
	}
	if p99 := res.SLO.Lat.Quantile(0.99); p99 > 20*sim.Millisecond {
		t.Fatalf("hotkey p99=%v exceeds the 20ms deadline", p99)
	}
}

func TestServePointUnknownScenario(t *testing.T) {
	_, err := runServePoint(serveConfig{Scenario: "nope", Factor: 1})
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// The reliability layer is the difference between a goodput plateau and
// collapse: at 2.5× offered load the ablated stack must do far worse.
func TestServeOverloadAblationCollapses(t *testing.T) {
	on := tinyServe(t, "baseline", 2.5, false)
	off := tinyServe(t, "baseline", 2.5, true)
	if on.SLO.Good < 4*off.SLO.Good {
		t.Fatalf("reliab on good=%d vs ablated good=%d: expected ≥4x separation",
			on.SLO.Good, off.SLO.Good)
	}
	if p99 := on.SLO.Lat.Quantile(0.99); p99 > 20*sim.Millisecond {
		t.Fatalf("reliab on p99=%v exceeds the 20ms deadline", p99)
	}
}

// A full serving point must be byte-deterministic per (seed, shards).
func TestServePointDeterministic(t *testing.T) {
	a := tinyServe(t, "faultchurn", 1.5, false)
	b := tinyServe(t, "faultchurn", 1.5, false)
	al, bl := a.SLO.Line(60*sim.Millisecond), b.SLO.Line(60*sim.Millisecond)
	if al != bl {
		t.Fatalf("same-seed runs diverged:\n  %s\n  %s", al, bl)
	}
	if a.SrvShed != b.SrvShed {
		t.Fatalf("side counters diverged: %+v vs %+v", a, b)
	}
}
