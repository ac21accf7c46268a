package hostos

import (
	"fmt"
	"strings"
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

func TestShardedClusterWiring(t *testing.T) {
	cfg := DefaultClusterConfig()
	c := NewShardedCluster(1, 40, 4, cfg)
	defer c.Shutdown()
	if c.Shards() != 4 || c.Coord == nil || c.Fab == nil {
		t.Fatalf("sharded cluster not sharded: shards=%d", c.Shards())
	}
	for i, n := range c.Nodes {
		sh := c.Fab.ShardOf(netsim.NodeID(i))
		if n.E != c.Coord.Engine(sh) {
			t.Fatalf("node %d engine is not its shard's (%d)", i, sh)
		}
		if c.EngineFor(netsim.NodeID(i)) != n.E {
			t.Fatalf("EngineFor(%d) mismatch", i)
		}
		if c.NetFor(netsim.NodeID(i)) != c.Fab.Shard(sh) {
			t.Fatalf("NetFor(%d) mismatch", i)
		}
	}
	// Same-leaf hosts always share a shard (leaf-aligned assignment).
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if c.ShardNet(0).LeafOf(netsim.NodeID(i)) == c.ShardNet(0).LeafOf(netsim.NodeID(j)) &&
				c.Fab.ShardOf(netsim.NodeID(i)) != c.Fab.ShardOf(netsim.NodeID(j)) {
				t.Fatalf("same-leaf hosts %d,%d on different shards", i, j)
			}
		}
	}
}

// pingPong runs eight seeded ping-pong pairs (node i with node i+8) over raw
// send descriptors for 5 ms, advancing the cluster through drive, and returns
// everything a driver can observe of where the run ended.
func pingPong(t *testing.T, c *Cluster, drive func(sim.Duration)) string {
	t.Helper()
	segs := make([]*Segment, 16)
	for i := range segs {
		segs[i] = c.Nodes[i].Driver.CreateEndpoint(uint64(100 + i))
	}
	rounds := 0
	for i := 0; i < 16; i++ {
		peer := (i + 8) % 16
		c.Nodes[i].Spawn("pingpong", func(p *sim.Proc) {
			for id := uint64(1); ; id++ {
				if i < 8 { // the ping side sends first
					sendVia(c, p, i, segs[i], &nic.SendDesc{DstNI: netsim.NodeID(peer), DstEP: segs[peer].EP.ID, Key: uint64(100 + peer), Handler: 1, MsgID: id})
				}
				for {
					if m, ok := segs[i].EP.PopRecv(p.Now()); ok {
						m.Free()
						break
					}
					p.Sleep(sim.Microsecond + sim.Duration(c.Nodes[i].E.Rand().Intn(2000)))
				}
				if i >= 8 {
					sendVia(c, p, i, segs[i], &nic.SendDesc{DstNI: netsim.NodeID(peer), DstEP: segs[peer].EP.ID, Key: uint64(100 + peer), Handler: 1, MsgID: id})
				} else {
					rounds++
				}
			}
		})
	}
	for k := 0; k < 5; k++ {
		drive(sim.Millisecond)
	}
	sent, delivered, dropped, corrupted := c.NetTotals()
	return fmt.Sprintf("rounds=%d now=%d stats=%+v net=%d/%d/%d/%d",
		rounds, c.Now(), c.EngineStats(), sent, delivered, dropped, corrupted)
}

// One shard is the N=1 case of the sharded cluster, whichever constructor
// built it: the coordinator and fabric are there, shard 0 is E and Net, and
// driving the cluster through its own Run methods is the same run as driving
// its one engine directly.
func TestOneShardClusterIsTheSameObject(t *testing.T) {
	build := []struct {
		name string
		mk   func() *Cluster
	}{
		{"NewCluster", func() *Cluster { return NewCluster(7, 16, DefaultClusterConfig()) }},
		{"NewShardedCluster", func() *Cluster { return NewShardedCluster(7, 16, 1, DefaultClusterConfig()) }},
	}
	var ends []string
	for _, b := range build {
		name := b.name
		for _, direct := range []bool{false, true} {
			c := b.mk()
			if c.Coord == nil || c.Fab == nil || c.Shards() != 1 {
				t.Fatalf("%s: Coord=%v Fab=%v Shards=%d", name, c.Coord, c.Fab, c.Shards())
			}
			if c.EngineFor(15) != c.ShardEngine(0) || c.NetFor(15) != c.ShardNet(0) {
				t.Fatalf("%s: shard 0 must own every node", name)
			}
			drive := c.RunFor
			if direct {
				drive = c.ShardEngine(0).RunFor
			}
			ends = append(ends, pingPong(t, c, drive))
			c.Shutdown()
		}
	}
	if strings.HasPrefix(ends[0], "rounds=0 ") {
		t.Fatalf("no ping-pong traffic: %s", ends[0])
	}
	for _, e := range ends[1:] {
		if e != ends[0] {
			t.Fatalf("one-shard runs differ:\n  %s\n  %s", ends[0], e)
		}
	}
}

func TestShardedObsMergesRegistries(t *testing.T) {
	c := NewShardedCluster(1, 20, 2, DefaultClusterConfig())
	defer c.Shutdown()
	o := c.EnableObs(obs.Options{})
	if o == nil || c.Obs() != o || c.ShardObs(0) != o {
		t.Fatalf("EnableObs must return shard 0's layer")
	}
	if c.ShardObs(1) == nil || c.ShardObs(1) == o {
		t.Fatalf("shard 1 must get its own layer")
	}
	c.RunFor(1e6)
	snap := c.MergedSnapshot()
	perShard := map[string]bool{}
	for _, kv := range snap.Vals {
		perShard[kv.Name] = true
	}
	// Every node's NI counters must appear exactly once in the merged
	// stream, whichever shard registry they registered with.
	for i := 0; i < 20; i++ {
		found := false
		for name := range perShard {
			if strings.HasPrefix(name, "nic.n"+itoa(i)+".") {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("merged snapshot missing node %d NI counters", i)
		}
	}
	// Fabric aggregates ride on shard 0 only.
	if !perShard["net.sent"] {
		t.Fatalf("merged snapshot missing fabric aggregate net.sent")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestRunUntilDone pins the one drive loop: a condition that already holds
// advances nothing, one that holds after k steps leaves the clock at k·step,
// and a deadline reached with the condition still false reports false — the
// same at one shard and at two, where every step is a run of barrier windows.
func TestRunUntilDone(t *testing.T) {
	const step = 250 * sim.Microsecond
	for _, shards := range []int{1, 2} {
		c := NewShardedCluster(3, 20, shards, DefaultClusterConfig())
		if c.RunUntilDone(step, sim.Time(sim.Second), func() bool { return true }) != true || c.Now() != 0 {
			t.Fatalf("%d shards: done before the first step: now=%v, want 0", shards, c.Now())
		}
		// One proc per shard counts its wake-ups; done reads the counts
		// between steps, while the engines are parked.
		ticks := make([]int, shards)
		for s := range ticks {
			c.ShardEngine(s).Spawn("tick", func(p *sim.Proc) {
				for {
					p.Sleep(step)
					ticks[s]++
				}
			})
		}
		const k = 7
		calls := 0
		ok := c.RunUntilDone(step, sim.Time(sim.Second), func() bool {
			calls++
			for _, n := range ticks {
				if n < k {
					return false
				}
			}
			return true
		})
		if !ok || c.Now() != sim.Time(k*step) || calls != k+1 {
			t.Fatalf("%d shards: done after %d steps: ok=%v now=%v calls=%d, want true %v %d",
				shards, k, ok, c.Now(), calls, sim.Time(k*step), k+1)
		}
		deadline := c.Now().Add(3 * step)
		if c.RunUntilDone(step, deadline, func() bool { return false }) || c.Now() != deadline {
			t.Fatalf("%d shards: deadline: now=%v, want false at %v", shards, c.Now(), deadline)
		}
		c.Shutdown()
	}
}
