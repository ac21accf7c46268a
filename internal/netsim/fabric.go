// Sharded fabric: one Network replica per engine shard, joined by the
// coordinator's cross-shard exchange.
//
// Shard assignment is leaf-aligned and contiguous — shard s owns the hosts
// of leaves [s*L/S, (s+1)*L/S) — so it is a pure function of the topology
// (hash-free, byte-stable across runs), and same-leaf traffic can never
// cross a shard boundary. Each replica holds a full copy of the link
// arrays; a replica only ever touches links on paths whose source or
// destination host it owns, so no link state is shared between engines.
//
// Intra-shard packets charge their whole path on their own replica (inject),
// which is every packet when the fabric has one shard. A cross-shard packet
// splits its cut-through reservation at the path midpoint, through the same
// path-charge helpers: the source shard charges the first half (host
// uplink, leaf uplink, and the core climb for cross-pod paths) against its
// replica, estimates the second half on its own copies (serializing its own
// traffic toward that receiver), and posts the packet through the exchange
// stamped with its optimistic delivery time. The destination shard re-runs the
// second half against its authoritative replica at apply time — receiver
// admission gating, down links, burst loss, and last-hop contention all
// happen where every packet for that host converges, so incast serializes
// correctly — and delivers at the contention-adjusted time. What the split
// gives up is cross-boundary stall propagation: a saturated receiver link
// delays delivery but no longer back-pressures the sender's half of the
// reservation (DESIGN §11 discusses the trade).
//
// The lookahead contract: a cross-shard path has at least 4 links (shards
// are leaf-aligned, so a cross-shard pair is at least leaf-to-leaf), and
// the posted timestamp is the full-path completion time, at least
// 4*switchLatency past the send — hence Lookahead = 4*switchLatency.
package netsim

import (
	"fmt"

	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// Lookahead is the conservative synchronization window for a sharded
// fabric: the minimum virtual latency of any cross-shard packet.
const Lookahead = 4 * switchLatency

// Fabric is a set of per-shard Network replicas over one topology.
type Fabric struct {
	nets        []*Network
	shardOfHost []int32
	leafLo      []int // shard s owns leaves [leafLo[s], leafLo[s+1])
}

// NewFabric builds one Network replica per coordinator shard for nhosts
// hosts and wires them together. Hosts are assigned to shards by
// contiguous leaf blocks.
func NewFabric(coord *sim.Coordinator, cfg Config, nhosts int) *Fabric {
	shards := coord.Shards()
	f := &Fabric{}
	for i := 0; i < shards; i++ {
		n := New(coord.Engine(i), cfg, nhosts)
		n.fab, n.shard = f, i
		f.nets = append(f.nets, n)
	}
	nleaves := f.nets[0].nleaves
	f.leafLo = make([]int, shards+1)
	for s := 0; s <= shards; s++ {
		f.leafLo[s] = s * nleaves / shards
	}
	f.shardOfHost = make([]int32, nhosts)
	s := 0
	for h := 0; h < nhosts; h++ {
		l := f.nets[0].leafOf(NodeID(h))
		for s+1 < shards && l >= f.leafLo[s+1] {
			s++
		}
		f.shardOfHost[h] = int32(s)
	}
	return f
}

// Shard returns shard i's Network replica. NICs and drivers of hosts owned
// by shard i must attach to this replica.
func (f *Fabric) Shard(i int) *Network { return f.nets[i] }

// ShardOf returns the shard that owns host h.
func (f *Fabric) ShardOf(h NodeID) int { return int(f.shardOfHost[h]) }

// Totals returns fabric-wide packet counters summed across replicas.
// Cross-shard packets count Sent at the source replica and Delivered at
// the destination replica, so the sums have the same meaning as a
// standalone Network's counters.
func (f *Fabric) Totals() (sent, delivered, dropped, corrupted int64) {
	for _, n := range f.nets {
		sent += n.Sent
		delivered += n.Delivered
		dropped += n.Dropped
		corrupted += n.Corrupted
	}
	return
}

// PerLinkCounters merges every replica's per-link counters by position:
// every replica enumerates eachLink in the same fixed order. A physical link
// charged by two replicas (a spine link split by a cross-shard reservation)
// reports the sum.
func (f *Fabric) PerLinkCounters() []LinkCounters {
	base := f.nets[0].PerLinkCounters()
	for _, n := range f.nets[1:] {
		i := 0
		n.eachLink(func(L *link) {
			base[i].Sent += L.sent
			base[i].Delivered += L.delivered
			base[i].Dropped += L.dropped
			i++
		})
	}
	return base
}

// xfer is a cross-shard packet in the exchange: a by-value copy of the
// packet's wire identity. The source shard's *Packet handle never crosses
// the boundary — the destination allocates a fresh packet from its own
// arena — so pooled packets stay shard-local (and the Parked flag a
// destination sets can never be observed by a source-shard NI).
type xfer struct {
	src, dst NodeID
	size     int
	payload  any
	control  bool
	corrupt  bool
	route    int
	headAt   sim.Time // when the head reaches the first destination-half link
	// Trace identity of a sampled packet, carried by value: the source
	// shard finalizes its segment of the flight at the handoff instant and
	// the destination opens a continuation from its own arena — no
	// *obs.Flight pointer ever crosses the boundary.
	traceID uint64
	srcSpan uint64
	kind    obs.Kind
}

// crossing carries one xfer through the exchange: a pooled record whose
// landing callback is bound once, when the record is made, as transit's
// timer is — so a cross-shard packet posts no closure of its own. The
// source replica takes it from its own list in sendCross; the destination
// releases it into *its* list once applyCross has read it. Ownership rides
// the post, as a wire header's data copy does, and every cross-shard data
// copy is answered by a cross-shard ACK or NACK, so the lists balance.
type crossing struct {
	x    xfer
	to   *Network // the destination replica, while posted
	fn   func()   // c.land, bound once
	next *crossing
}

// crossCap bounds a replica's crossing list: under one-way traffic one
// side only releases, and a crossing past the cap falls to the collector.
const crossCap = 1024

func (n *Network) newCrossing(to *Network) *crossing {
	c := n.freeCross
	if c != nil {
		n.freeCross, c.next = c.next, nil
		n.nfreeCross--
	} else {
		c = &crossing{}
		c.fn = c.land
		n.crossMade++
	}
	c.to = to
	n.crossLive++
	return c
}

// land runs on the destination shard at the posted instant.
func (c *crossing) land() {
	n := c.to
	n.crossLive--
	n.applyCross(&c.x)
	c.x, c.to = xfer{}, nil
	if n.nfreeCross >= crossCap {
		n.crossDropped++
		return
	}
	c.next, n.freeCross = n.freeCross, c
	n.nfreeCross++
}

// Crossings accounts for the fabric's crossing records: how many the
// replicas made, how many sit in their lists, how many the cap let go, and
// how many are posted and not yet landed. made − free − dropped = inFlight
// holds at every barrier.
func (f *Fabric) Crossings() (made, free, dropped, inFlight int) {
	for _, n := range f.nets {
		made += n.crossMade
		free += n.nfreeCross
		dropped += n.crossDropped
		inFlight += n.crossLive
	}
	return
}

// sendCross injects a packet whose destination lives on another shard: the
// source half of the path for real, the destination half as a local
// estimate, then the exchange. The caller keeps its packet reference and no
// transit reference is taken on this side, so a loss here releases nothing;
// the pooled *Packet stays the sending NI's handle and a bit flip rides the
// xfer by value, in a crossing from this replica's list.
func (n *Network) sendCross(pkt *Packet, route int, dstShard int) {
	n.Sent++
	if n.lostInFabric(pkt) {
		return
	}
	links := n.path(pkt.Src, pkt.Dst, route)
	half := len(links) / 2
	if L, kind := n.cross(links[:half]); L != nil {
		pkt.Flight.Note(kind+L.name, n.e.Now())
		return
	}
	corrupt := pkt.Corrupt || n.flips(pkt)
	// Full-path cut-through reservation on this replica: authoritative for
	// the source half, an estimate for the destination half that serializes
	// this shard's own stream toward the receiver.
	t0 := n.reserve(links, n.e.Now())
	done := n.occupy(links, half, t0, pkt)
	c := n.newCrossing(n.fab.nets[dstShard])
	x := &c.x
	*x = xfer{
		src: pkt.Src, dst: pkt.Dst, size: pkt.Size, payload: pkt.Payload,
		control: pkt.Control, corrupt: corrupt, route: route,
		headAt: t0.Add(sim.Duration(half) * switchLatency),
	}
	if fl := pkt.Flight; fl != nil && !fl.Done() {
		// occupy recorded the source half of the cut-through schedule; now
		// finalize this shard's segment at the instant the head crosses the
		// midpoint. The destination opens a continuation at the same instant,
		// so the two segments tile the packet's life. A retransmitted copy
		// finds the flight already finalized and crosses untraced — one
		// crossing, one continuation.
		x.traceID, x.srcSpan, x.kind = fl.TraceID, fl.Span, fl.Kind
		fl.Handoff(x.headAt)
	}
	n.e.PostRemote(dstShard, done, c.fn)
}

// applyCross lands an exchanged packet on the destination shard: allocate
// from this shard's arena, run the receiver's admission gate, and finish
// the path through injectTail.
func (n *Network) applyCross(x *xfer) {
	pkt := n.AllocPacket() // the transit reference, released at handoff/loss
	pkt.Src, pkt.Dst, pkt.Size, pkt.Payload = x.src, x.dst, x.size, x.payload
	pkt.Control, pkt.Corrupt = x.control, x.corrupt
	if x.traceID != 0 {
		// Continue the traced packet's flight from this shard's own arena,
		// beginning at the handoff instant; the receive path marks the
		// remaining stages on it and it files into this shard's rings.
		pkt.Flight = n.tracer.Continue(x.traceID, x.srcSpan, int(x.src), int(x.dst), x.kind, x.headAt)
	}
	if !pkt.Control {
		if adm := n.admission[pkt.Dst]; adm != nil {
			if q := &n.waitq[pkt.Dst]; q.Len() > 0 || !adm() {
				pkt.Parked = true
				q.Push(waiting{pkt: pkt, route: x.route, remote: true, headAt: x.headAt})
				return
			}
		}
	}
	n.injectTail(pkt, x.route, x.headAt)
}

// injectTail charges the destination half of a cross-shard path against
// this shard's authoritative replica — down links, burst loss, last-hop
// contention — and schedules delivery. headAt is when the packet's head
// reached the first destination-half link under the source's estimate;
// contention here only ever pushes delivery later.
func (n *Network) injectTail(pkt *Packet, route int, headAt sim.Time) {
	links := n.path(pkt.Src, pkt.Dst, route)
	tail := links[len(links)/2:]
	if L, kind := n.cross(tail); L != nil {
		// The source segment is already finalized, so a continuation lost on
		// the destination half ends here: the retransmission that masks the
		// loss crosses as a fresh untraced packet.
		pkt.Flight.Drop(obs.StageWire, kind+L.name, n.e.Now())
		pkt.Release()
		return
	}
	done := n.occupy(tail, len(tail), n.reserve(tail, headAt), pkt)
	if done < n.e.Now() {
		// Re-admitted long after its computed schedule (parked behind the
		// receiver's gate): deliver as soon as the clock allows.
		done = n.e.Now()
	}
	n.newTransit(pkt).timer.ResetAt(done)
}

// VerifyPoolLocality walks this replica's packet free list and checks that
// every pooled packet is owned by this Network — i.e. no pooled object was
// handed across a shard boundary — and its crossing list, whose records do
// change shards but must come back emptied and stay within the cap. Returns
// nil when the arena is clean.
func (n *Network) VerifyPoolLocality() error {
	for p := n.freePkt; p != nil; p = p.fnext {
		if p.owner != n {
			return fmt.Errorf("netsim: foreign packet in shard %d arena", n.shard)
		}
	}
	free := 0
	for c := n.freeCross; c != nil; c = c.next {
		if c.to != nil || c.x != (xfer{}) {
			return fmt.Errorf("netsim: live crossing in shard %d list", n.shard)
		}
		free++
	}
	if free != n.nfreeCross || free > crossCap {
		return fmt.Errorf("netsim: shard %d crossing list holds %d, counted %d, cap %d", n.shard, free, n.nfreeCross, crossCap)
	}
	return nil
}
