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

// numNackReasons sizes the per-reason tables below.
const numNackReasons = int(NackMoved) + 1

var nackNames = [numNackReasons]string{"none", "not-resident", "overrun", "no-endpoint", "bad-key", "moved"}

// nackNote and returnedNote are the flight annotations for a NACK received
// and a message returned to its sender, built once: the call sites run
// whether or not the message is traced, and must not build a string to hand
// to a nil flight.
var nackNote, returnedNote = func() (nack, ret [numNackReasons]string) {
	for r, name := range nackNames {
		nack[r], ret[r] = "nack:"+name, "returned:"+name
	}
	return
}()

func (r NackReason) String() string {
	if r < 0 || int(r) >= numNackReasons {
		return "none"
	}
	return nackNames[r]
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

	// desc, flight and netPkt are the sender's state for the attempt, set
	// only on a channel's master header and cleared on every copy that goes
	// on the wire (acks identify messages by channel+seq). flight is the
	// trace context copied from the descriptor at send time, which
	// retransmission paths consult; netPkt is the handle to the last
	// transmission's network packet, consulted to suppress retransmission
	// while it is parked behind back pressure.
	desc   *SendDesc
	flight *obs.Flight
	netPkt *netsim.Packet
	// rxFlight and arrived are written only by the NI a copy arrives at:
	// rxFlight is the flight the delivery callback handed over with this
	// copy (the sender's flight on an intra-shard path, the destination
	// shard's continuation on a cross-shard one), and arrived stamps the
	// copy's acceptance into the staging queue so deliver can split wire
	// transit from NI receive processing.
	rxFlight *obs.Flight
	arrived  sim.Time

	// pool points at the NI that holds the header — the one that took it
	// from its free list, then the one it was delivered to (nil for headers
	// tests build directly, which are never recycled); pnext links the free
	// list.
	pool  *NIC
	pnext *wirePkt
}

// releaseTo returns a pooled header to NI n's free list; a no-op on unpooled
// headers. A header on the wire is owned by the wire: every transmission — a
// data copy made from a channel's master header, an ACK, a NACK — takes a
// header from the sending NI's list, and the NI that consumes it releases it
// into its own list, never the allocator's (another node's pool and, under a
// sharded engine, another shard's memory). Each data copy is answered by one
// ACK or NACK, so an NI releases a header for each it allocates and the lists
// balance with nothing moving across a shard. A copy the fabric drops, or
// that a Reboot or Crash wipes from a staging queue, falls to the garbage
// collector and costs one allocation later. DESIGN.md §6 has the table.
func (w *wirePkt) releaseTo(n *NIC) {
	if w.pool == nil {
		return
	}
	*w = wirePkt{pool: n, pnext: n.hdrFree}
	n.hdrFree = w
}

// allocHdr takes a zeroed header from the NI's free list, or makes one.
func (n *NIC) allocHdr() *wirePkt {
	if w := n.hdrFree; w != nil {
		n.hdrFree = w.pnext
		w.pnext = nil
		return w
	}
	n.hdrMade++
	return &wirePkt{pool: n}
}

// PoolStats reports, for wire headers and for send descriptors, how many
// this NI ever made (its pool misses) and how many sit in its free lists now
// (diagnostics). Cluster-wide and after a drain, made minus free is what
// the named loss paths took: packets the fabric dropped, queues a Reboot or
// Crash wiped.
func (n *NIC) PoolStats() (hdrMade, hdrFree, descMade, descFree int) {
	for w := n.hdrFree; w != nil; w = w.pnext {
		hdrFree++
	}
	for d := n.descFree; d != nil; d = d.fnext {
		descFree++
	}
	return n.hdrMade, hdrFree, n.descMade, descFree
}

// VerifyPoolLocality walks this NI's free lists and checks that every
// pooled object records this NI as its holder — the invariant that keeps
// arenas shard-local under a sharded engine. Returns nil when clean.
func (n *NIC) VerifyPoolLocality() error {
	for w := n.hdrFree; w != nil; w = w.pnext {
		if w.pool != n {
			return fmt.Errorf("nic %d: foreign wire header in free list", int(n.id))
		}
	}
	for m := n.msgFree; m != nil; m = m.fnext {
		if m.owner != n {
			return fmt.Errorf("nic %d: foreign receive descriptor in free list", int(n.id))
		}
	}
	for d := n.descFree; d != nil; d = d.fnext {
		if d.owner != n {
			return fmt.Errorf("nic %d: foreign send descriptor in free list", int(n.id))
		}
	}
	return nil
}
