package nic

import (
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// TestFirstContactAllocatesOneRecord pins what a new peer costs: the first
// message to a remote NI, with its ACK, allocates the peer record and the
// first channel's retransmission callback on the sender and the peer record
// on the receiver, and nothing else. Every pool is warm and neither NI's
// peer map grows (each stays within one map group), so what is counted is
// the first-contact state itself.
func TestFirstContactAllocatesOneRecord(t *testing.T) {
	const targets = 7 // NI 0 talks to NI 1 and these: 8 peers, one map group
	r := newRig(t, 2+targets, 1, nil, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 100, 7, 0)
	relay := r.newEP(t, 1, 101, 7, 0)
	dsts := []*EndpointImage{nil, nil}
	for k := 2; k < 2+targets; k++ {
		dsts = append(dsts, r.newEP(t, k, 200+k, 9, 0))
	}
	r.newEP(t, 1, 201, 9, 1)
	tx := r.nics[0]
	send := func(host int, ep *EndpointImage, dst int) {
		d := r.nics[host].AllocDesc()
		d.DstNI, d.DstEP, d.Key, d.Handler, d.MsgID = netsim.NodeID(dst), 200+dst, 9, 1, 1
		r.send(host, ep, d)
		r.e.RunFor(sim.Millisecond)
	}
	deliver := func(k int) {
		m, _ := dsts[k].RecvQ.Pop()
		if m == nil {
			t.Fatalf("NI %d: no delivery", k)
		}
		m.Free()
	}
	// Warm-up: NI 0 sends to NI 1, and NI 1 to every target, so each pool,
	// each peer map's group and each target endpoint's message-window map
	// exists before NI 0 first contacts a target.
	send(0, src, 1)
	for k := 2; k < 2+targets; k++ {
		send(1, relay, k)
		deliver(k)
	}
	k := 1
	avg := testing.AllocsPerRun(targets-1, func() {
		k++
		send(0, src, k)
		deliver(k)
	})
	if avg > 3 {
		t.Fatalf("a first contact allocates %.0f times, want at most 3: the record and the first channel's timer callback on the sender, the record on the receiver", avg)
	}
	if k != 1+targets || len(tx.peers) != 1+targets || tx.C.Get("rx.ack") != 1+targets {
		t.Fatalf("contacted %d targets, %d records, %d ACKs", k-1, len(tx.peers), tx.C.Get("rx.ack"))
	}
}

// made counts the channels of p's record that were ever handed out, and the
// channel storage the record holds.
func made(p *peer) (handed, storage int) {
	for ch := range p.channels {
		storage++
		if ch.p != nil {
			handed++
		}
	}
	return handed, storage
}

// TestLazyChannelsUnderFaults: k sends in flight to one peer make exactly k
// channels, the lowest k, out of Config.Channels; a Reboot unbinds and
// requeues all k and the new epoch delivers them on the same channels; a
// Crash drops the record.
func TestLazyChannelsUnderFaults(t *testing.T) {
	const k = 5
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 100, 7, 0)
	dst := r.newEP(t, 1, 200, 9, 0)
	n := r.nics[0]
	burst := func(first uint64) {
		for i := uint64(0); i < k; i++ {
			r.send(0, src, &SendDesc{DstNI: 1, DstEP: 200, Key: 9, Handler: 1, MsgID: first + i})
		}
		r.e.RunFor(200 * sim.Microsecond)
	}
	r.net.SetHostLinkDown(1, true) // every attempt stays in flight
	burst(1)
	p := n.peers[1]
	if h, s := made(p); h != k || s >= 2*k || src.Inflight() != k {
		t.Fatalf("%d sends in flight: %d channels handed out, %d stored (want %d, < %d); in flight %d",
			k, h, s, k, 2*k, src.Inflight())
	}
	for i := 0; i < k; i++ {
		if ch := n.chanFor(1, i); ch == nil || ch.inflight == nil || ch.idx != i {
			t.Fatalf("channel %d does not carry an attempt", i)
		}
	}
	if n.chanFor(1, k) == nil || n.chanFor(1, k).inflight != nil || n.chanFor(1, 8) != nil {
		t.Fatalf("channel %d should be stored and free, channel 8 never made", k)
	}

	n.Reboot(sim.Millisecond)
	if src.Inflight() != 0 || src.PendingSends() != k {
		t.Fatalf("after Reboot: %d in flight, %d queued; want 0 and all %d requeued", src.Inflight(), src.PendingSends(), k)
	}
	for ch := range p.channels {
		if ch.inflight != nil || ch.seq != 0 {
			t.Fatalf("channel %d still bound (seq %d) after Reboot", ch.idx, ch.seq)
		}
	}
	r.net.SetHostLinkDown(1, false)
	r.e.RunFor(20 * sim.Millisecond)
	if dst.RecvQ.Len() != k || src.Inflight() != 0 {
		t.Fatalf("after the reboot: %d delivered, %d in flight; want %d and 0", dst.RecvQ.Len(), src.Inflight(), k)
	}
	if h, _ := made(p); h != k || n.peers[1] != p {
		t.Fatalf("redelivery made %d channels (record kept: %v), want the same %d", h, n.peers[1] == p, k)
	}

	r.net.SetHostLinkDown(1, true)
	burst(1 + k)
	if h, _ := made(p); h != k || src.Inflight() != k {
		t.Fatalf("second burst: %d channels, %d in flight; want %d reused", h, src.Inflight(), k)
	}
	n.Crash()
	if len(n.peers) != 0 {
		t.Fatalf("Crash left %d peer records", len(n.peers))
	}
	for ch := range p.channels {
		if ch.inflight != nil {
			t.Fatalf("channel %d still holds its attempt after Crash", ch.idx)
		}
	}
	r.e.RunFor(300 * sim.Millisecond) // no retransmission timer survives the crash
	if got := n.C.Get("tx.retrans"); got != 0 {
		t.Fatalf("%d retransmissions after the crash", got)
	}
}

// TestEpochResetDuringDepositIsNotRecorded is TestStaleEpochAnswersIgnored's
// receive-side sibling. A bulk message from NI 0 is mid-DMA into its
// endpoint when a copy from NI 0's next epoch, on the same channel, is
// refused at arrival because the staging pool is full: the refusal resets
// that channel's receive state to the new epoch and records the attempt as
// rejected. The bulk message's ACK, decided for the old epoch, must not land
// in the new state: the refused attempt's retransmission is refused again
// (NACK overrun, as the first copy was), not acknowledged as a duplicate of
// the old epoch's sequence number.
func TestEpochResetDuringDepositIsNotRecorded(t *testing.T) {
	r := newRig(t, 3, 1, func(c *Config) { c.InboundPool = 1 }, nil)
	defer r.shutdown()
	r.newEP(t, 1, 200, 9, 0)
	n := r.nics[1]
	type answer struct {
		kind   pktKind
		reason NackReason
		seq    uint64
		epoch  uint32
	}
	var got []answer
	r.tap(0, 0, func(_ *netsim.Packet, w *wirePkt) {
		got = append(got, answer{w.Kind, w.Reason, w.Seq, w.Epoch})
	})
	const oldEpoch, newEpoch = 3, 7
	arrive := func(src netsim.NodeID, epoch uint32, msg uint64, bytes int) {
		w := n.allocHdr()
		w.Kind, w.SrcNI, w.DstNI, w.Chan, w.Seq, w.Epoch = pktData, src, 1, 0, 1, epoch
		w.DstEP, w.SrcEP, w.Key, w.Handler, w.MsgID = 200, 100+int(src), 9, 1, msg
		if bytes > 0 {
			w.Payload = make([]byte, bytes)
		}
		n.fromNetwork(&netsim.Packet{Payload: w})
	}
	arrive(0, oldEpoch, 1, 8192)
	for i := 0; n.stage != stageDeposit; i++ {
		if i == 1000 {
			t.Fatal("the bulk message never reached its deposit DMA")
		}
		r.e.RunFor(sim.Microsecond)
	}
	arrive(2, 5, 1, 0)          // fills the one-slot staging pool
	arrive(0, newEpoch, 2, 0)   // refused at arrival: resets channel 0's state
	r.e.RunFor(sim.Millisecond) // the deposit finishes and is acknowledged
	arrive(0, newEpoch, 2, 0)   // the refused attempt, retransmitted
	r.e.RunFor(sim.Millisecond)
	want := []answer{
		{pktAck, NackNone, 1, oldEpoch},
		{pktNack, NackOverrun, 1, newEpoch},
		{pktNack, NackOverrun, 1, newEpoch},
	}
	if len(got) != len(want) {
		t.Fatalf("NI 0 got answers %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NI 0 got answers %+v, want %+v", got, want)
		}
	}
	if d, rej, over := n.C.Get("rx.dup"), n.C.Get("rx.rejected_dup"), n.C.Get("rx.pool_overrun"); d != 0 || rej != 1 || over != 1 {
		t.Fatalf("rx.dup = %d, rx.rejected_dup = %d, rx.pool_overrun = %d; want 0, 1, 1", d, rej, over)
	}
}
