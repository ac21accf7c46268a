package netsim

import (
	"testing"

	"virtnet/internal/sim"
)

// TestPacketPoolNoAliasing exercises the packet free list: a released packet
// must come back zeroed (its old payload must not leak into the next
// allocation), and a packet retained by its receiver must not be recycled
// under the receiver, even after the network and sender drop their
// references. Run under -race as part of the race suite.
func TestPacketPoolNoAliasing(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	n := New(e, DefaultConfig(), 2)

	var delivered []*Packet
	n.Attach(0, func(p *Packet) {})
	n.Attach(1, func(p *Packet) {
		p.Retain() // consumer keeps the packet past the callback
		delivered = append(delivered, p)
	})

	payload1 := []byte("first payload")
	p1 := n.AllocPacket()
	p1.Src, p1.Dst, p1.Size, p1.Payload = 0, 1, len(payload1), payload1
	n.Send(p1, 0)
	e.RunFor(sim.Millisecond)

	if len(delivered) != 1 || delivered[0] != p1 {
		t.Fatalf("expected p1 delivered, got %v", delivered)
	}
	// Sender drops its handle; the receiver's Retain must keep p1 intact.
	p1.Release()
	p2 := n.AllocPacket()
	if p2 == p1 {
		t.Fatalf("retained packet was recycled")
	}
	if got := p1.Payload.([]byte); &got[0] != &payload1[0] || string(got) != "first payload" {
		t.Fatalf("retained packet payload clobbered: %q", got)
	}

	// Receiver finishes with p1: it must be the next allocation, zeroed.
	p1.Release()
	p3 := n.AllocPacket()
	if p3 != p1 {
		t.Fatalf("released packet not recycled (free list broken)")
	}
	if p3.Payload != nil || p3.Src != 0 || p3.Dst != 0 || p3.Size != 0 ||
		p3.Control || p3.Parked || p3.Corrupt {
		t.Fatalf("recycled packet not zeroed: %+v", p3)
	}

	// Send it again with a different payload: the receiver must observe only
	// the new contents, and the first delivery's payload slice is untouched.
	payload3 := []byte("second payload")
	p3.Dst, p3.Size, p3.Payload = 1, len(payload3), payload3
	n.Send(p3, 0)
	e.RunFor(sim.Millisecond)
	if len(delivered) != 2 {
		t.Fatalf("second delivery missing")
	}
	if string(delivered[1].Payload.([]byte)) != "second payload" {
		t.Fatalf("wrong payload on recycled packet: %q", delivered[1].Payload)
	}
	if string(payload1) != "first payload" {
		t.Fatalf("first payload mutated by recycle: %q", payload1)
	}
	for _, p := range delivered {
		p.Release()
	}
	p2.Release()

	// Unpooled packets (direct construction) must pass through Retain and
	// Release as no-ops.
	up := &Packet{Src: 0, Dst: 1, Size: 8}
	up.Retain()
	up.Release()
	up.Release()
	if up.owner != nil {
		t.Fatalf("unpooled packet acquired an owner")
	}
}

// TestCrossingsRecycleUnderACap sends one-way cross-shard traffic, then a
// stream back. One way, the source makes a crossing per packet and the
// destination's list fills to its cap, the rest falling to the collector;
// at every barrier made − free − dropped is the number in flight, and every
// list is emptied records within the cap. The stream back makes nothing: it
// rides the records the first stream left on the far side.
func TestCrossingsRecycleUnderACap(t *testing.T) {
	cfg := DefaultConfig()
	coord := sim.NewCoordinator(1, 2, Lookahead)
	defer coord.Shutdown()
	fab := NewFabric(coord, cfg, 20)
	delivered := make([]int, 20)
	for h := 0; h < 20; h++ {
		fab.Shard(fab.ShardOf(NodeID(h))).Attach(NodeID(h), func(*Packet) { delivered[h]++ })
	}
	if fab.ShardOf(0) != 0 || fab.ShardOf(15) != 1 {
		t.Fatal("hosts 0 and 15 must sit on shards 0 and 1")
	}
	stream := func(from, to NodeID, n int, start sim.Time) sim.Time {
		s := fab.ShardOf(from)
		net := fab.Shard(s)
		for k := 0; k < n; k++ {
			at := start.Add(sim.Duration(k) * 2 * sim.Microsecond)
			coord.Engine(s).AfterFuncAt(at, func() { net.Send(&Packet{Src: from, Dst: to, Size: 150}, k) })
		}
		end := start.Add(sim.Duration(n) * 2 * sim.Microsecond).Add(sim.Millisecond)
		for now := start; now < end; now = now.Add(100 * sim.Microsecond) {
			coord.RunUntil(now)
			books(t, fab)
		}
		coord.RunUntil(end)
		books(t, fab)
		return end
	}

	const sends = 3 * crossCap
	end := stream(0, 15, sends, 0)
	made, free, dropped, inFlight := fab.Crossings()
	if delivered[15] != sends || made != sends || free != crossCap || dropped != sends-crossCap || inFlight != 0 {
		t.Fatalf("one way: delivered %d; made %d, free %d, dropped %d, in flight %d; want %d, %d, %d, %d, 0",
			delivered[15], made, free, dropped, inFlight, sends, sends, crossCap, sends-crossCap)
	}
	stream(15, 0, crossCap, end)
	made2, _, _, _ := fab.Crossings()
	if delivered[0] != crossCap || made2 != made {
		t.Fatalf("stream back: delivered %d of %d, made %d more crossings", delivered[0], crossCap, made2-made)
	}
	if fab.Shard(0).nfreeCross != crossCap || fab.Shard(1).nfreeCross != 0 {
		t.Fatalf("lists hold %d and %d, want %d and 0", fab.Shard(0).nfreeCross, fab.Shard(1).nfreeCross, crossCap)
	}
}

func books(t *testing.T, fab *Fabric) {
	t.Helper()
	if made, free, dropped, inFlight := fab.Crossings(); made-free-dropped != inFlight {
		t.Fatalf("crossings: %d made, %d free, %d dropped, %d in flight", made, free, dropped, inFlight)
	}
	for s := range fab.nets {
		if err := fab.Shard(s).VerifyPoolLocality(); err != nil {
			t.Fatal(err)
		}
	}
}
