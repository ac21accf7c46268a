package bench

import (
	"testing"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// TestTraceTreeStageSumExact is the attribution analyzer's foundation
// property: for every sampled flight the recorder finalizes normally —
// request roots above all, since their stage vectors partition the client's
// end-to-end window — the sum of the per-stage totals must equal the
// flight's end-to-end time *exactly*, at every shard count. Handed-off
// flights and drops are excluded (their vectors deliberately cover only
// part of the span's life); everything else has no slack and no overlap.
// The same invariant must survive the critical-path fold: each SLO class's
// folded stage vector sums to the class's total end-to-end time.
func TestTraceTreeStageSumExact(t *testing.T) {
	if testing.Short() {
		t.Skip("traced serve points are slow")
	}
	for _, sh := range []int{1, 2, 4, 8} {
		res, err := runServePoint(serveConfig{
			Scenario: "baseline", Factor: 1.0,
			Hosts: 64, Servers: 8, Clients: 16, Shards: sh, Seed: 7,
			TraceSample: 4,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", sh, err)
		}
		reqs := 0
		var whole []*obs.Flight
		for _, f := range res.Flights {
			if !f.Done() || f.DropReason != "" || f.HandedOff {
				continue
			}
			whole = append(whole, f)
			if f.Kind == obs.KindReq {
				reqs++
			}
		}
		if err := stageSums(whole); err != nil {
			t.Errorf("shards=%d: %v", sh, err)
		}
		if reqs == 0 {
			t.Fatalf("shards=%d: no sampled request roots among %d flights", sh, len(res.Flights))
		}
		t.Logf("shards=%d: %d flights exact (%d request roots)", sh, len(whole), reqs)

		for i := range res.Attr.Classes {
			ca := &res.Attr.Classes[i]
			var sum sim.Duration
			for _, d := range ca.Stage {
				sum += d
			}
			if sum != ca.Total {
				t.Errorf("shards=%d class %s: folded stage sum %v != total e2e %v",
					sh, ca.Class, sum, ca.Total)
			}
		}
	}
}

// TestTailAttributionDeterministic: the merged attribution report — the
// exact bytes vnbench tailat goldens — must be identical across two runs
// at the same (seed, shard count), including exemplar ordering.
func TestTailAttributionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("traced serve points are slow")
	}
	run := func() string {
		res, err := runServePoint(serveConfig{
			Scenario: "incast", Factor: 1.0,
			Hosts: 64, Servers: 8, Clients: 16, Shards: 4, Seed: 11,
			TraceSample: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Attr.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("attribution diverged across identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("empty attribution report")
	}
}
