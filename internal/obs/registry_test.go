package obs

import (
	"fmt"
	"sync"
	"testing"

	"virtnet/internal/sim"
)

// TestRegistryConcurrentSnapshot hammers the registry from many goroutines
// at once — counter updates, late section registrations, snapshots,
// dashboards, and sampling reads — and relies on the race detector to flag
// any unguarded access. This mirrors the daemon shape: worker goroutines
// mutate counters while observer goroutines read metrics. The engine is
// advanced only before the hammering starts: the virtual clock itself is
// single-threaded by design (the daemon serializes all engine access
// through one executor), and the registry must be safe around it.
func TestRegistryConcurrentSnapshot(t *testing.T) {
	e := sim.NewEngine(1)
	r := NewRegistry(e)
	var c Counters
	r.AddCounters("base", &c)
	r.AddGauge("g", func() float64 { return 42 })
	r.StartSampling(sim.Millisecond)
	c.Inc("seeded")
	e.RunFor(10 * sim.Millisecond) // accumulate sampled snaps for Snaps/Dashboard readers

	const (
		writers = 4
		readers = 4
		iters   = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var cc Counters
			for i := 0; i < iters; i++ {
				c.Inc(fmt.Sprintf("k%d", i%8))
				c.Add("bytes", 64)
				cc.Inc("own")
				if i%500 == 0 {
					// Late registration racing the snapshot walk.
					r.AddCounters(fmt.Sprintf("w%d.%d", w, i), &cc)
					r.AddGauge(fmt.Sprintf("w%d.g%d", w, i), func() float64 { return float64(i) })
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				_ = r.Snapshot()
				_ = r.Snaps()
				_ = c.Snapshot()
				_ = c.Get("bytes")
				if i%50 == 0 {
					_ = r.Dashboard()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if len(s.Vals) == 0 {
		t.Fatal("empty snapshot after hammering")
	}
	if len(r.Snaps()) == 0 {
		t.Fatal("no sampled snapshots")
	}
	var total int64
	for _, kv := range c.Snapshot() {
		total += int64(kv.Value)
	}
	want := int64(writers*iters*(1+64)) + 1 // Inc + Add(64) per iter, plus the seed
	if total != want {
		t.Fatalf("counter total = %d, want %d (lost updates)", total, want)
	}
}

// TestMergeSnapsKeepsCollidingShardSections pins the cross-shard merge
// semantics: every shard's registry registers the same section names
// (each shard wires its own "reliab" counters and "lat_us" gauge), and
// MergeSnaps must concatenate the colliding entries in shard order —
// never sum, dedupe, or shadow them — while the merged timestamp is the
// furthest shard clock. A registry only uniquifies names within itself,
// so collisions across shards are the normal case, not an error.
func TestMergeSnapsKeepsCollidingShardSections(t *testing.T) {
	mkShard := func(seed, sent int64, lat sim.Duration, run sim.Duration) Snap {
		e := sim.NewEngine(seed)
		r := NewRegistry(e)
		var c Counters
		c.Add("sent", sent)
		r.AddCounters("reliab", &c)
		r.AddGauge("lat_us", func() float64 { return lat.Seconds() * 1e6 })
		e.RunFor(run)
		return r.Snapshot()
	}
	s0 := mkShard(1, 3, 100*sim.Microsecond, 5*sim.Millisecond)
	s1 := mkShard(2, 5, 250*sim.Microsecond, 7*sim.Millisecond)

	m := MergeSnaps([]Snap{s0, s1})
	if m.At != s1.At {
		t.Fatalf("merged At = %v, want the furthest shard clock %v", m.At, s1.At)
	}
	want := []KV{
		{Name: "reliab.sent", Value: 3},
		{Name: "lat_us", Value: 100},
		{Name: "reliab.sent", Value: 5},
		{Name: "lat_us", Value: 250},
	}
	if len(m.Vals) != len(want) {
		t.Fatalf("merged %d values, want %d: %+v", len(m.Vals), len(want), m.Vals)
	}
	for i, kv := range m.Vals {
		if kv != want[i] {
			t.Fatalf("val[%d] = %+v, want %+v (shard order, collisions kept)", i, kv, want[i])
		}
	}

	if z := MergeSnaps(nil); z.At != 0 || z.Vals != nil {
		t.Fatalf("empty merge not zero: %+v", z)
	}
}
