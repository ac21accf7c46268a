package core

import (
	"fmt"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// TestRequestReplyAllocFree pins the steady-state message path at zero
// allocations, through the library: a short request posted by Endpoint.Request
// (its send descriptor from the NI's pool), carried, deposited, dispatched,
// answered by a short reply and acknowledged both ways, with both hosts
// waiting in IdlePoll.
func TestRequestReplyAllocFree(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	replies := 0
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		if err := tok.Reply(p, 2, a); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	e0.SetHandler(2, func(*sim.Proc, *Token, [4]uint64, []byte) { replies++ })
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for {
			e1.IdlePoll(p, 5*sim.Microsecond, sim.Never)
		}
	})
	// One exchange per period, started on the period's boundary, so a cycle
	// of the measurement is exactly one request and its reply.
	const period = 200 * sim.Microsecond
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := uint64(1); ; i++ {
			if err := e0.Request(p, 0, 1, [4]uint64{i}); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			for want := int(i); replies < want; {
				e0.IdlePoll(p, 5*sim.Microsecond, sim.Never)
			}
			p.Sleep(period - sim.Duration(p.Now())%period)
		}
	})
	cycle := func() { c.RunFor(period) }
	for i := 0; i < 50; i++ {
		cycle() // warm: endpoints resident, pools filled, queues grown
	}
	before := replies
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("request → reply allocates %.2f times per exchange, want 0", avg)
	}
	if replies-before != 201 {
		t.Fatalf("%d exchanges in 201 cycles", replies-before)
	}
}

// TestPoolsConserveAndStayLocal runs request/reply pairs that cross leaves
// (and, at 2 and 4 shards, engine shards) on a loss-free and on a lossy
// fabric, drains, and accounts for every pooled object: each send descriptor
// any NI made is back in a free list, each wire header is in a free list or
// went down with a packet the fabric dropped — no other path loses one —,
// each crossing a shard replica made is in a replica's list, in flight, or
// let go past a list's cap, and every free list holds only objects that name
// its NI as their holder. Run under -race it is also the check that no pool
// is touched from two shards without the exchange between.
func TestPoolsConserveAndStayLocal(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, drop := range []float64{0, 0.03} {
			t.Run(fmt.Sprintf("shards=%d/drop=%v", shards, drop), func(t *testing.T) {
				poolsConserve(t, shards, drop)
			})
		}
	}
}

func poolsConserve(t *testing.T, shards int, drop float64) {
	const nodes, msgs = 40, 60
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = drop
	cfg.NIC.RetransBase = 200 * sim.Microsecond
	cfg.NIC.RetransMax = 2 * sim.Millisecond
	c := hostos.NewShardedCluster(5, nodes, shards, cfg)
	defer c.Shutdown()

	eps := make([]*Endpoint, nodes)
	for i := range eps {
		ep, err := Attach(c.Nodes[i]).NewEndpoint(Key(100+i), 4)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	// Node i talks to node i+20: another leaf, and another shard when there
	// is one. Clients are 0..19; replies are counted where they land.
	got := make([]int, nodes/2)
	for i := 0; i < nodes/2; i++ {
		cl, sv := eps[i], eps[i+nodes/2]
		if err := cl.Map(0, sv.Name(), Key(100+i+nodes/2)); err != nil {
			t.Fatal(err)
		}
		if err := sv.Map(0, cl.Name(), Key(100+i)); err != nil {
			t.Fatal(err)
		}
		sv.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { tok.Reply(p, 2, a) })
		cl.SetHandler(2, func(*sim.Proc, *Token, [4]uint64, []byte) { got[i]++ })
		c.Nodes[i+nodes/2].Spawn("server", func(p *sim.Proc) {
			for {
				sv.IdlePoll(p, 5*sim.Microsecond, sim.Never)
			}
		})
		c.Nodes[i].Spawn("client", func(p *sim.Proc) {
			for k := uint64(1); k <= msgs; k++ {
				if err := cl.Request(p, 0, 1, [4]uint64{k}); err != nil {
					t.Errorf("client %d request %d: %v", i, k, err)
					return
				}
			}
			for {
				cl.IdlePoll(p, 5*sim.Microsecond, sim.Never)
			}
		})
	}
	done := func() bool {
		for _, n := range got {
			if n < msgs {
				return false
			}
		}
		return true
	}
	if !c.RunUntilDone(sim.Millisecond, sim.Time(2*sim.Second), done) {
		t.Fatalf("replies %v, want %d each", got, msgs)
	}
	c.RunFor(50 * sim.Millisecond) // the last ACKs, and any copy still retransmitting

	var hdrMade, hdrFree, descMade, descFree int
	for i, n := range c.Nodes {
		if err := n.NIC.VerifyPoolLocality(); err != nil {
			t.Error(err)
		}
		hm, hf, dm, df := n.NIC.PoolStats()
		hdrMade, hdrFree, descMade, descFree = hdrMade+hm, hdrFree+hf, descMade+dm, descFree+df
		if img := eps[i].Segment().EP; img.Inflight() != 0 || img.PendingSends() != 0 {
			t.Errorf("node %d not drained: inflight %d, pending %d", i, img.Inflight(), img.PendingSends())
		}
	}
	_, _, dropped, _ := c.NetTotals()
	if (drop > 0) != (dropped > 0) {
		t.Fatalf("fabric dropped %d packets at DropProb %v", dropped, drop)
	}
	if descMade == 0 || descFree != descMade {
		t.Errorf("send descriptors: %d made, %d free", descMade, descFree)
	}
	if hdrMade == 0 || int64(hdrMade-hdrFree) != dropped {
		t.Errorf("wire headers: %d made, %d free, %d packets dropped by the fabric", hdrMade, hdrFree, dropped)
	}
	for s := 0; s < shards; s++ {
		if err := c.ShardNet(s).VerifyPoolLocality(); err != nil {
			t.Error(err)
		}
	}
	made, free, letGo, inFlight := c.Fab.Crossings()
	if (shards > 1) != (made > 0) || made-free != inFlight+letGo {
		t.Errorf("crossings at %d shards: %d made, %d free, %d in flight, %d let go past the cap", shards, made, free, inFlight, letGo)
	}
}
