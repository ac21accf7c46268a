package netsim

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"virtnet/internal/sim"
)

// fabricLog drives a fixed, spaced (uncontended) send schedule through a
// sharded fabric and returns every host's delivery log, sorted by host:
// "host<-src seq@time". With no link contention and no loss/corruption RNG
// in play, the cut-through model delivers a cross-shard packet at exactly
// the time the classic single-engine path would, so the logs must be
// identical at every shard count.
func fabricLog(t testing.TB, seed int64, shards, hosts, sends int) []string {
	log, _ := fabricRun(t, seed, shards, hosts, sends)
	return log
}

// fabricRun is fabricLog plus what the schedule charged to every link, in
// eachLink order: the merged sent/delivered/dropped counters. A cross-shard
// packet is charged half by each of two replicas, so the sums must not depend
// on where the boundary falls.
func fabricRun(t testing.TB, seed int64, shards, hosts, sends int) (log, links []string) {
	cfg := DefaultConfig()
	coord := sim.NewCoordinator(seed, shards, Lookahead)
	defer coord.Shutdown()
	fab := NewFabric(coord, cfg, hosts)
	var mu sync.Mutex
	logs := make([][]string, hosts)
	for h := 0; h < hosts; h++ {
		h := h
		fab.Shard(fab.ShardOf(NodeID(h))).Attach(NodeID(h), func(p *Packet) {
			e := coord.Engine(fab.ShardOf(NodeID(h)))
			mu.Lock()
			logs[h] = append(logs[h], fmt.Sprintf("%d<-%d %v@%d", h, p.Src, p.Payload, e.Now()))
			mu.Unlock()
		})
	}
	// Spaced far enough apart that no two packets share a link: delivery
	// times are purely topological.
	for k := 0; k < sends; k++ {
		k := k
		src := NodeID((k * 7) % hosts)
		dst := NodeID((k*13 + hosts/2) % hosts)
		if src == dst {
			dst = NodeID((int(dst) + 1) % hosts)
		}
		s := fab.ShardOf(src)
		net := fab.Shard(s)
		route := k // path() takes the spine and core from any route value
		at := sim.Time(0).Add(sim.Duration(k) * 50 * sim.Microsecond)
		coord.Engine(s).AfterFuncAt(at, func() {
			net.Send(&Packet{Src: src, Dst: dst, Size: 150, Payload: k}, route)
		})
	}
	coord.RunUntil(sim.Time(0).Add(sim.Duration(sends+1) * 50 * sim.Microsecond))
	for h := 0; h < hosts; h++ {
		log = append(log, logs[h]...)
	}
	sort.Strings(log)
	for _, lc := range fab.PerLinkCounters() {
		links = append(links, fmt.Sprintf("%s sent=%d delivered=%d dropped=%d",
			lc.Name, lc.Sent, lc.Delivered, lc.Dropped))
	}
	return log, links
}

// TestShardCountInvariance is the shard-determinism property: the same
// seed and send schedule produce byte-identical per-host delivery logs at
// 1, 2, 4, and 8 shards.
func TestShardCountInvariance(t *testing.T) {
	const hosts, sends = 60, 120
	base, baseLinks := fabricRun(t, 3, 1, hosts, sends)
	if len(base) != sends {
		t.Fatalf("baseline delivered %d of %d", len(base), sends)
	}
	for _, shards := range []int{2, 4, 8} {
		got, links := fabricRun(t, 3, shards, hosts, sends)
		// Delivery times alone do not see a midpoint link charged twice or
		// not at all by the two halves of a split path; the per-link
		// charges do.
		for i := range baseLinks {
			if links[i] != baseLinks[i] {
				t.Fatalf("shards=%d charges a link differently:\n  1 shard: %s\n  %d shards: %s",
					shards, baseLinks[i], shards, links[i])
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(base) {
			for i := range base {
				if i >= len(got) || got[i] != base[i] {
					t.Fatalf("shards=%d diverges at entry %d:\n  1 shard: %s\n  %d shards: %s",
						shards, i, base[i], shards, at(got, i))
				}
			}
			t.Fatalf("shards=%d: length %d vs %d", shards, len(got), len(base))
		}
	}
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestShardRunByteIdentity double-runs a fixed shard count and requires
// identical logs — the repeatability half of determinism (worker goroutine
// scheduling must never leak into the virtual timeline).
func TestShardRunByteIdentity(t *testing.T) {
	for _, shards := range []int{2, 4} {
		a := fabricLog(t, 9, shards, 40, 80)
		b := fabricLog(t, 9, shards, 40, 80)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("shards=%d double run diverged", shards)
		}
	}
}

// TestCrossShardCountersConserve checks fabric-wide totals: every send is
// delivered exactly once (lossless config), with Sent charged at the
// source replica and Delivered at the destination replica.
func TestCrossShardCountersConserve(t *testing.T) {
	cfg := DefaultConfig()
	coord := sim.NewCoordinator(1, 4, Lookahead)
	defer coord.Shutdown()
	fab := NewFabric(coord, cfg, 40)
	var mu sync.Mutex
	delivered := 0
	for h := 0; h < 40; h++ {
		fab.Shard(fab.ShardOf(NodeID(h))).Attach(NodeID(h), func(p *Packet) {
			mu.Lock()
			delivered++
			mu.Unlock()
		})
	}
	const sends = 200
	for k := 0; k < sends; k++ {
		k := k
		src := NodeID(k % 40)
		dst := NodeID((k + 20) % 40)
		s := fab.ShardOf(src)
		net := fab.Shard(s)
		coord.Engine(s).AfterFuncAt(sim.Time(0).Add(sim.Duration(k)*sim.Microsecond), func() {
			net.Send(&Packet{Src: src, Dst: dst, Size: 64}, k)
		})
	}
	coord.RunUntil(sim.Time(0).Add(sends * sim.Microsecond).Add(sim.Millisecond))
	sent, del, drop, corr := fab.Totals()
	if sent != sends || del != sends || drop != 0 || corr != 0 || delivered != sends {
		t.Fatalf("totals: sent=%d delivered=%d dropped=%d corrupted=%d callbacks=%d",
			sent, del, drop, corr, delivered)
	}
	for s := 0; s < 4; s++ {
		if err := fab.Shard(s).VerifyPoolLocality(); err != nil {
			t.Fatal(err)
		}
	}
}

// poolFree counts the packets on a replica's free list.
func poolFree(n *Network) int {
	k := 0
	for p := n.freePkt; p != nil; p = p.fnext {
		k++
	}
	return k
}

// TestCrossShardLossChargedOnce sends one pooled packet from host 0 to host
// 15 — leaves 0 and 3, so the path h0->leaf, leaf0->spine0, spine0->leaf3,
// leaf->h15 splits between shards 0 and 1 when there are two — into a fabric
// that loses it in the source half, in the destination half, or uniformly.
// Wherever the boundary falls the loss is counted once, on the same link,
// and every packet reference goes back to the pool of the replica it came
// from exactly once (an over-release panics).
func TestCrossShardLossChargedOnce(t *testing.T) {
	cases := []struct {
		name   string
		drop   float64
		breakL func(n *Network)
		lostOn string
		// crossed: the loss is on the destination half, so with two shards
		// the packet goes through the exchange and dies on the far replica.
		crossed bool
	}{
		{"source half down", 0, func(n *Network) { n.SetUplinkDown(0, 0, true) }, "leaf0->spine0", false},
		{"destination half down", 0, func(n *Network) { n.SetUplinkDown(3, 0, true) }, "spine0->leaf3", true},
		{"DropProb 1", 1, func(n *Network) {}, "h0->leaf", false},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			cfg := DefaultConfig()
			cfg.DropProb = tc.drop
			coord := sim.NewCoordinator(1, shards, Lookahead)
			fab := NewFabric(coord, cfg, 20)
			for s := 0; s < shards; s++ {
				tc.breakL(fab.Shard(s))
				for h := 0; h < 20; h++ {
					fab.Shard(s).Attach(NodeID(h), func(*Packet) { t.Errorf("%s: lost packet delivered", tc.name) })
				}
			}
			if fab.ShardOf(0) != 0 || fab.ShardOf(15) != shards-1 {
				t.Fatalf("host 0 on shard %d, host 15 on shard %d", fab.ShardOf(0), fab.ShardOf(15))
			}
			src, dst := fab.Shard(0), fab.Shard(shards-1)
			coord.Engine(0).AfterFunc(10, func() {
				pkt := src.AllocPacket()
				pkt.Src, pkt.Dst, pkt.Size = 0, 15, 150
				src.Send(pkt, 0)
				pkt.Release() // the sender's handle; the transit reference is the fabric's
			})
			coord.RunUntil(sim.Time(0).Add(sim.Millisecond))
			coord.Shutdown()
			where := fmt.Sprintf("%s, %d shards", tc.name, shards)
			if sent, del, drop, _ := fab.Totals(); sent != 1 || del != 0 || drop != 1 {
				t.Fatalf("%s: sent=%d delivered=%d dropped=%d, want 1/0/1", where, sent, del, drop)
			}
			lossReplica := src
			if tc.crossed {
				lossReplica = dst
			}
			if lossReplica.Dropped != 1 {
				t.Fatalf("%s: the drop was not counted by the replica that owns %s", where, tc.lostOn)
			}
			for _, lc := range fab.PerLinkCounters() {
				if want := lc.Name == tc.lostOn; (lc.Dropped == 1) != want || lc.Dropped > 1 {
					t.Fatalf("%s: %s dropped=%d, want the one drop on %s", where, lc.Name, lc.Dropped, tc.lostOn)
				}
			}
			_, exchanged := coord.ExchangeStats()
			if want := tc.crossed && shards == 2; (exchanged == 1) != want {
				t.Fatalf("%s: %d packets crossed the exchange", where, exchanged)
			}
			// One packet came out of the source pool; a crossing takes a
			// second from the destination's. Each is back where it came from.
			wantFree := map[*Network]int{src: 1}
			if exchanged == 1 {
				wantFree[dst] = 1
			}
			for s := 0; s < shards; s++ {
				n := fab.Shard(s)
				if err := n.VerifyPoolLocality(); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got := poolFree(n); got != wantFree[n] {
					t.Fatalf("%s: shard %d pool holds %d free packets, want %d", where, s, got, wantFree[n])
				}
			}
		}
	}
}

// FuzzShardDeterminism fuzzes (seed, shard count, send count): each input
// must be repeatable at its shard count and agree with the single-shard
// baseline.
func FuzzShardDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(40))
	f.Add(int64(7), uint8(5), uint8(90))
	f.Add(int64(42), uint8(8), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, shardsRaw, sendsRaw uint8) {
		shards := int(shardsRaw)%8 + 1
		sends := int(sendsRaw)%60 + 1
		const hosts = 30
		base := fabricLog(t, seed, 1, hosts, sends)
		got := fabricLog(t, seed, shards, hosts, sends)
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Fatalf("seed=%d shards=%d sends=%d diverged from single-shard baseline", seed, shards, sends)
		}
		again := fabricLog(t, seed, shards, hosts, sends)
		if fmt.Sprint(got) != fmt.Sprint(again) {
			t.Fatalf("seed=%d shards=%d sends=%d not repeatable", seed, shards, sends)
		}
	})
}
