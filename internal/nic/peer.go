package nic

import (
	"virtnet/internal/container"
	"virtnet/internal/netsim"
)

// peer is everything this NI keeps about one remote NI: its stop-and-wait
// channels to that NI, the receive state of each of the remote NI's channels
// toward this one, the RTT estimate and the acks waiting for a carrier. A
// record is made on first contact in either direction — a send considered
// for the remote NI, or an arrival from it — and only Crash drops it; Reboot
// clears what NI SRAM held of it (receive states, pending acks, the RTT
// estimate) and keeps the channels. Channel 0 and its receive state live in
// the record. Further ones are made the first time a send or an arrival
// uses them, and channels are taken lowest-free-first, so a record holds
// the prefix of channels its traffic has needed, not Config.Channels.
type peer struct {
	ch0 channel
	rx0 rxState
	chs container.Chunks[channel] // channels 1, 2, …
	rxs container.Chunks[rxState] // receive states 1, 2, …
	rtt rttEst                    // AdaptiveTimeout extension
	// acks holds acknowledgments awaiting a carrier (PiggybackAcks
	// extension). takeAcks hands out its backing array, so it is dropped,
	// never resliced to empty, once it is taken in full.
	acks []piggyAck
}

// channels yields the record's channels whose storage exists, in index
// order; a channel never handed out is free and has never been armed.
func (p *peer) channels(yield func(*channel) bool) {
	if !yield(&p.ch0) {
		return
	}
	for _, c := range p.chs {
		for i := range c {
			if !yield(&c[i]) {
				return
			}
		}
	}
}

// peerFor returns the record for remote NI id, making it on first contact.
func (n *NIC) peerFor(id netsim.NodeID) *peer {
	p := n.peers[id]
	if p == nil {
		p = &peer{}
		n.peers[id] = p
	}
	return p
}

// freeChannel returns the lowest-numbered unoccupied channel to dst, making
// the record and the channel on first use, or nil if all Config.Channels
// channels to dst carry an attempt.
func (n *NIC) freeChannel(dst netsim.NodeID) *channel {
	p := n.peerFor(dst)
	for i := 0; i < n.cfg.Channels; i++ {
		ch := &p.ch0
		if i > 0 {
			ch = p.chs.At(i, n.cfg.Channels)
		}
		if ch.inflight == nil {
			if ch.p == nil {
				n.initChannel(ch, p, i)
			}
			return ch
		}
	}
	return nil
}

// chanFor finds our channel to peer with the given index, or nil if it was
// never made; it makes nothing.
func (n *NIC) chanFor(id netsim.NodeID, idx int) *channel {
	p := n.peers[id]
	switch {
	case p == nil:
		return nil
	case idx == 0:
		return &p.ch0
	}
	return p.chs.Get(idx)
}

// rxFor returns the receive state of the data packet's (source NI, channel),
// making it on first arrival. A packet from a new epoch (the sender rebooted
// or restarted) resets the state in place, which is how channels
// self-synchronize (§5.1).
func (n *NIC) rxFor(pkt *wirePkt) *rxState {
	p := n.peerFor(pkt.SrcNI)
	st := &p.rx0
	if pkt.Chan > 0 {
		st = p.rxs.At(pkt.Chan, n.cfg.Channels)
	}
	if st.epoch != pkt.Epoch {
		st.reset(pkt.Epoch)
	}
	return st
}

// reset starts the receive state over under epoch. gen moves on, so a verdict
// the firmware reached against the state before the reset is not recorded
// into the new one (answer).
func (st *rxState) reset(epoch uint32) {
	*st = rxState{epoch: epoch, gen: st.gen + 1}
}
