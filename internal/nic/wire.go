package nic

import (
	"fmt"

	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// pktKind distinguishes wire packet types.
type pktKind int

const (
	pktData pktKind = iota
	pktAck
	pktNack
)

// NackReason encodes why a message could not be delivered (§5.1: negative
// acknowledgments encode why messages could not be delivered).
type NackReason int

const (
	NackNone        NackReason = iota
	NackNotResident            // destination endpoint not bound to a frame; retransmit later
	NackOverrun                // destination receive queue full; retransmit later
	NackNoEndpoint             // no such endpoint; return to sender
	NackBadKey                 // protection key mismatch; return to sender
	// NackMoved: the endpoint migrated to another node. Returned to the
	// sender so the library can refresh the name's location binding from the
	// cluster name service and re-issue toward the new node (§3.2's
	// return-to-sender machinery doubling as the migration redirect).
	NackMoved
)

func (r NackReason) String() string {
	switch r {
	case NackNotResident:
		return "not-resident"
	case NackOverrun:
		return "overrun"
	case NackNoEndpoint:
		return "no-endpoint"
	case NackBadKey:
		return "bad-key"
	case NackMoved:
		return "moved"
	}
	return "none"
}

// transient reports whether the failure should be retried (vs returned).
func (r NackReason) transient() bool {
	return r == NackNotResident || r == NackOverrun
}

// Permanent reports whether re-sending a message the fabric handed back to
// its sender (§3.2) is pointless: the destination endpoint is gone, its key
// was revoked, or — dstIdx < 0, as the return handler reports it — the
// destination is not in the sender's translation table, so there is no slot
// to re-send through. Every other return is a transport condition a later
// attempt may outlive.
func (r NackReason) Permanent(dstIdx int) bool {
	return dstIdx < 0 || r == NackNoEndpoint || r == NackBadKey
}

// wirePkt is what travels through netsim between NIs.
type wirePkt struct {
	Kind   pktKind
	SrcNI  netsim.NodeID
	DstNI  netsim.NodeID
	Chan   int
	Seq    uint64
	Epoch  uint32   // NI incarnation; lets channels self-synchronize after reboot
	Stamp  sim.Time // 32-bit link-header timestamp, reflected in acks (§5.1)
	Reason NackReason

	// Data fields.
	DstEP    int
	SrcEP    int
	MsgID    uint64
	Key      uint64
	ReplyKey uint64
	Handler  int
	IsReply  bool
	Args     [4]uint64
	Payload  []byte

	// Piggy carries acknowledgments riding in this packet (the §8
	// piggybacking extension); data packets and batched control packets
	// both may carry them.
	Piggy []piggyAck

	// Sender-side reference to the originating descriptor; never
	// "serialized" (acks identify messages by channel+seq).
	desc *SendDesc
	// flight is the trace context copied from the descriptor at send time —
	// owned by the sending shard, which retransmission paths consult.
	// rxFlight and arrived are written only by the receiving NI: rxFlight is
	// the flight the delivery callback handed over (the sender's flight on
	// an intra-shard path, the destination shard's continuation on a
	// cross-shard one), and arrived stamps the accepted inbound arrival so a
	// later deliver can split wire transit from NI receive processing. The
	// sender never touches rxFlight/arrived and the receiver never touches
	// flight, so the split is race-free when the two NIs live on different
	// engine shards.
	flight   *obs.Flight
	rxFlight *obs.Flight
	arrived  sim.Time
	// netPkt is the sender-side handle to the last transmission's network
	// packet, consulted to suppress retransmission while it is parked
	// behind back pressure.
	netPkt *netsim.Packet

	// pool marks a pooled control header and points at the NI whose free
	// list currently holds it (nil for data headers and directly built test
	// packets); pnext links the free list.
	pool  *NIC
	pnext *wirePkt
}

// releaseTo returns a pooled control header to NI n's free list — the NI
// that finished processing it, not the NI that allocated it. Acks flow
// back against data, so releasing into the allocator's list would push
// onto a pool owned by another node — and, under a sharded engine, mutate
// another shard's arena from this one (a data race). Releasing locally
// keeps every free list touched only by its own node; headers migrate
// between pools as control traffic flows, totals conserved. A no-op on
// unpooled headers.
func (w *wirePkt) releaseTo(n *NIC) {
	if w.pool == nil {
		return
	}
	*w = wirePkt{pool: n, pnext: n.ctlFree}
	n.ctlFree = w
}

// allocCtl takes a control header from the NI's free list, or makes one.
func (n *NIC) allocCtl() *wirePkt {
	if w := n.ctlFree; w != nil {
		n.ctlFree = w.pnext
		w.pnext = nil
		w.pool = n
		return w
	}
	return &wirePkt{pool: n}
}

// VerifyPoolLocality walks this NI's free lists and checks that every
// pooled object records this NI as its holder — the invariant that keeps
// arenas shard-local under a sharded engine. Returns nil when clean.
func (n *NIC) VerifyPoolLocality() error {
	for w := n.ctlFree; w != nil; w = w.pnext {
		if w.pool != n {
			return fmt.Errorf("nic %d: foreign control header in free list", int(n.id))
		}
	}
	for m := n.msgFree; m != nil; m = m.fnext {
		if m.owner != n {
			return fmt.Errorf("nic %d: foreign receive descriptor in free list", int(n.id))
		}
	}
	return nil
}
