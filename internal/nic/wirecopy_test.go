package nic

import (
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// The two tests in this file pass unchanged on a tree where one *wirePkt is
// shared by the sending channel, every copy in the fabric and the receiver:
// they pin what a copy on the wire must keep saying once the sender has
// moved on, and whose flight a delivery completes.

// tap interposes on host h's delivery callback. A nonzero wire lengthens
// the path into h: each packet reaches the tap and h's NI that long after
// the fabric delivers it, held as the fabric holds a packet in flight.
func (r *rig) tap(h int, wire sim.Duration, see func(p *netsim.Packet, w *wirePkt)) {
	r.net.Attach(netsim.NodeID(h), func(p *netsim.Packet) {
		if wire == 0 {
			see(p, p.Payload.(*wirePkt))
			r.nics[h].fromNetwork(p)
			return
		}
		p.Retain()
		r.e.AfterFunc(wire, func() {
			see(p, p.Payload.(*wirePkt))
			r.nics[h].fromNetwork(p)
			p.Release()
		})
	})
}

// TestLateDuplicateKeepsItsOwnSeq forces a timer retransmission of every
// message on a one-channel pair whose round trip is longer than the timer:
// the second copy is still in the fabric when the ACK of the first resolves
// the channel and the channel carries the next message. The late copy must
// arrive saying what it said when it left — its own Seq, MsgID and
// arguments, not the next message's — be answered from rxState under that
// Seq, and the next message must be delivered once. A header recycled or
// rewritten while a copy of it is in flight fails here.
func TestLateDuplicateKeepsItsOwnSeq(t *testing.T) {
	r := newRig(t, 2, 1, func(c *Config) {
		c.Channels = 1
		c.RetransBase = 20 * sim.Microsecond // fires at 20–30 µs; the round trip is ≈ 50 µs
	}, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	dst := r.newEP(t, 1, 2, 2, 0)

	chanSeq := func() uint64 { return r.nics[0].chanFor(1, 0).seq }
	late, copies := 0, 0
	// The wire into the receiver adds 40 µs to the ≈ 10 µs round trip.
	r.tap(1, 40*sim.Microsecond, func(_ *netsim.Packet, w *wirePkt) {
		if w.Kind != pktData {
			return
		}
		copies++
		if w.MsgID != w.Seq || w.Args[0] != w.Seq || w.DstEP != 2 || w.SrcEP != 1 || w.Key != 2 {
			t.Errorf("copy arrived as seq=%d msg=%d arg=%d dst=%d src=%d key=%d (channel is at seq %d)",
				w.Seq, w.MsgID, w.Args[0], w.DstEP, w.SrcEP, w.Key, chanSeq())
		}
		if w.Seq < chanSeq() {
			late++ // the channel already carries a later message
		}
	})
	staleAcks := 0
	r.tap(0, 0, func(_ *netsim.Packet, w *wirePkt) {
		if w.Kind != pktAck {
			t.Errorf("sender received kind %d, want only ACKs", w.Kind)
		}
		if w.Seq < chanSeq() {
			staleAcks++ // the answer to a late copy, under that copy's Seq
		}
	})

	const N = 8
	for i := 1; i <= N; i++ {
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1, MsgID: uint64(i), Args: [4]uint64{uint64(i)}})
	}
	r.e.RunFor(5 * sim.Millisecond)

	for i := 1; i <= N; i++ {
		m, _ := dst.RecvQ.Pop()
		if m == nil || m.Args[0] != uint64(i) {
			t.Fatalf("message %d: got %+v, want each once and in order", i, m)
		}
	}
	if dst.RecvQ.Len() != 0 {
		t.Fatalf("%d extra deliveries", dst.RecvQ.Len())
	}
	tx, rx := r.nics[0].C, r.nics[1].C
	if late == 0 || staleAcks != late {
		t.Fatalf("late copies %d, stale ACKs %d: want every late copy answered under its own Seq, and at least one", late, staleAcks)
	}
	if int64(copies) != N+tx.Get("tx.retrans") || rx.Get("rx.dup") != tx.Get("tx.retrans") ||
		tx.Get("rx.ack.stale") != rx.Get("rx.dup") || rx.Get("rx.delivered") != N {
		t.Fatalf("copies=%d tx.retrans=%d rx.dup=%d rx.ack.stale=%d rx.delivered=%d",
			copies, tx.Get("tx.retrans"), rx.Get("rx.dup"), tx.Get("rx.ack.stale"), rx.Get("rx.delivered"))
	}
	if src.Inflight() != 0 || src.PendingSends() != 0 {
		t.Fatalf("sender not drained: inflight=%d pending=%d", src.Inflight(), src.PendingSends())
	}
}

// TestDeliveryCompletesTheFlightOfItsOwnCopy: a traced message whose first
// copy dies at the receiving NI (CRC) is completed by the retransmitted copy
// — the receiver takes the flight from the network packet of the copy it
// delivers, closes the wire interval at that copy's arrival and hands the
// flight on with the deposited message. The copy that died leaves a note and
// nothing else.
func TestDeliveryCompletesTheFlightOfItsOwnCopy(t *testing.T) {
	r := newRig(t, 2, 1, func(c *Config) { c.RetransBase = 200 * sim.Microsecond }, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	dst := r.newEP(t, 1, 2, 2, 0)
	tr := obs.NewTracer(r.e, 2, 1, 64)

	var arrivals []sim.Time
	var seqs []uint64
	r.tap(1, 0, func(p *netsim.Packet, w *wirePkt) {
		if w.Kind != pktData {
			return
		}
		if len(arrivals) == 0 {
			p.Corrupt = true
		}
		arrivals = append(arrivals, r.e.Now())
		seqs = append(seqs, w.Seq)
	})

	fl := tr.Sample(0, 1, obs.KindShort, r.e.Now())
	if fl == nil {
		t.Fatal("tracer did not sample")
	}
	r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1, MsgID: 1, Flight: fl})
	r.e.RunFor(2 * sim.Millisecond)

	if len(arrivals) != 2 || seqs[0] != seqs[1] {
		t.Fatalf("arrivals %v seqs %v: want the corrupted copy and one retransmission of the same attempt", arrivals, seqs)
	}
	m, _ := dst.RecvQ.Pop()
	if m == nil || dst.RecvQ.Len() != 0 {
		t.Fatalf("delivered %v extra=%d, want exactly one", m != nil, dst.RecvQ.Len())
	}
	if m.Flight != fl {
		t.Fatalf("deposited message carries flight %p, want the message's own %p", m.Flight, fl)
	}
	var wireEnd, niEnd sim.Time
	for _, st := range fl.Stages {
		switch st.Stage {
		case obs.StageWire:
			wireEnd = st.End
		case obs.StageRemoteNI:
			niEnd = st.End
		}
	}
	if wireEnd != arrivals[1] || niEnd != m.Arrive {
		t.Fatalf("wire interval ends %v, NI interval %v: want the delivered copy's arrival %v and the deposit %v (stages %+v)",
			wireEnd, niEnd, arrivals[1], m.Arrive, fl.Stages)
	}
	notes := map[string]int{}
	for _, n := range fl.Notes {
		notes[n.What]++
	}
	if notes["rx-crc-drop"] != 1 || notes["retransmit"] != 1 {
		t.Fatalf("notes %v: want one rx-crc-drop and one retransmit", fl.Notes)
	}
	if r.nics[1].C.Get("rx.crc_drop") != 1 || r.nics[1].C.Get("rx.delivered") != 1 {
		t.Fatalf("crc_drop=%d delivered=%d", r.nics[1].C.Get("rx.crc_drop"), r.nics[1].C.Get("rx.delivered"))
	}
}
