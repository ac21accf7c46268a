package nic

import (
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// This file implements the two protocol extensions the paper's conclusion
// (§8) identifies as enabled by additional NI processing power:
//
//  1. round-trip time estimation for scheduling retransmissions, and
//  2. piggybacking acknowledgments to reduce network occupancy.
//
// Both are off by default so the base system matches the paper; the
// ablation benches turn them on.

// rttEst is a Jacobson-style mean/deviation estimator per remote NI, kept in
// the peer record.
type rttEst struct {
	srtt   sim.Duration
	rttvar sim.Duration
	valid  bool
}

// sample folds one RTT measurement into the estimate.
func (r *rttEst) sample(rtt sim.Duration) {
	if !r.valid {
		r.srtt = rtt
		r.rttvar = rtt / 2
		r.valid = true
		return
	}
	diff := r.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	r.rttvar += (diff - r.rttvar) / 4
	r.srtt += (rtt - r.srtt) / 8
}

// rto returns the retransmission timeout.
func (r *rttEst) rto(min sim.Duration) sim.Duration {
	if !r.valid {
		return 0
	}
	v := r.srtt + 4*r.rttvar
	if v < min {
		v = min
	}
	return v
}

// observeRTT records the timestamp reflected by an ack of ch's attempt. For
// retransmitted attempts the stamp still dates from the first transmission,
// so the measurement is ambiguous (Karn) but is a valid *upper bound*: it is
// used only when it would raise the estimate, which lets the estimator
// escape a too-short initial timeout that retransmits every message.
func (n *NIC) observeRTT(ch *channel, stamp sim.Time) {
	if !n.cfg.AdaptiveTimeout {
		return
	}
	est := &ch.p.rtt
	rtt := n.e.Now().Sub(stamp)
	if ch.retries == 0 || !est.valid || rtt > est.srtt {
		est.sample(rtt)
	}
}

// retransDelay picks the base retransmission delay for a channel.
func (n *NIC) retransDelay(ch *channel) sim.Duration {
	if n.cfg.AdaptiveTimeout {
		if rto := ch.p.rtt.rto(n.cfg.MinRTO); rto > 0 {
			// Apply channel-level exponential backoff on top.
			d := rto
			for i := 0; i < ch.retries; i++ {
				d *= 2
			}
			if d > n.cfg.RetransMax {
				d = n.cfg.RetransMax
			}
			return d
		}
	}
	return ch.backoff
}

// ---- Piggybacked acknowledgments ----

// piggyAck identifies one acknowledgment riding in another packet.
type piggyAck struct {
	Chan  int
	Seq   uint64
	Epoch uint32
	Stamp sim.Time
}

// queueAck records a positive acknowledgment for peer. With piggybacking
// disabled it is sent immediately as a standalone control packet; otherwise
// it waits (briefly) for a data packet headed to peer.
func (n *NIC) queueAck(data *wirePkt) {
	if !n.cfg.PiggybackAcks {
		n.sendControl(data, pktAck, NackNone)
		return
	}
	peer := data.SrcNI
	p := n.peerFor(peer)
	p.acks = append(p.acks, piggyAck{
		Chan: data.Chan, Seq: data.Seq, Epoch: data.Epoch, Stamp: data.Stamp,
	})
	n.C.add(ctrTxAckQueued, 1)
	if len(p.acks) == 1 {
		// First pending ack for this peer: bound its wait.
		peer := peer
		n.e.AfterFunc(ackDelay, func() {
			n.work.Push(workItem{kind: workFlushAcks, peer: peer})
			n.wake()
		})
	}
}

// takeAcks removes up to max of p's pending acks.
func (n *NIC) takeAcks(p *peer, max int) []piggyAck {
	pend := p.acks
	if len(pend) == 0 {
		return nil
	}
	k := len(pend)
	if k > max {
		k = max
	}
	out := pend[:k:k]
	if rest := pend[k:]; len(rest) == 0 {
		p.acks = nil
	} else {
		p.acks = rest
	}
	return out
}

// flushAcks sends any still-pending acks for peer as one batched control
// packet (the ackDelay expired with no data packet to carry them), once the
// cost of generating it is paid (emitAcks). A flush armed before a Crash
// finds no record.
func (n *NIC) flushAcks(peer netsim.NodeID) {
	if p := n.peers[peer]; p == nil || len(p.acks) == 0 {
		return
	}
	n.charge(n.cfg.AckSend, stageFlush)
}

// emitAcks is flushAcks past its charge. Only the firmware queues and takes
// pending acks, so the ones it takes now are the ones it found.
func (n *NIC) emitAcks() {
	peer := n.cur.peer
	acks := n.takeAcks(n.peers[peer], 1<<30)
	n.C.add(ctrTxAckFlush, 1)
	ctl := n.allocHdr()
	ctl.Kind = pktAck
	ctl.SrcNI = n.id
	ctl.DstNI = peer
	ctl.Piggy = acks
	n.injectControl(ctl, acks[0].Chan)
}

// nextPiggy charges for the next ack riding on the packet in hand (data or
// a batched control packet). With none left, a data packet goes on to its
// receive critical path and a batch is done.
func (n *NIC) nextPiggy() {
	switch {
	case n.piggy < len(n.pkt.Piggy):
		n.charge(piggyAckCost, stagePiggy)
	case n.pkt.Kind == pktData:
		n.charge(recvCritical+checkOverhead, stageRecv)
	}
}

// takePiggy resolves the ack just paid for against our channel to the
// packet's sender, then moves on to the next.
func (n *NIC) takePiggy() {
	pkt := n.pkt
	a := pkt.Piggy[n.piggy]
	n.piggy++
	n.C.add(ctrRxAckPiggy, 1)
	if ch := n.chanFor(pkt.SrcNI, a.Chan); ch == nil || ch.inflight == nil || ch.inflight.Seq != a.Seq || a.Epoch != n.epoch {
		n.C.add(ctrRxAckStale, 1)
	} else {
		n.observeRTT(ch, a.Stamp)
		n.freeDesc(n.resolveChannel(ch))
	}
	n.nextPiggy()
}
