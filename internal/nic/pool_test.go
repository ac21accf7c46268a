package nic

import (
	"testing"
	"testing/quick"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

func TestInboundPoolOverrunNacks(t *testing.T) {
	// Shrink the staging pool so a burst from several senders overruns it;
	// overrun packets must be NACKed at arrival and eventually delivered
	// via retransmission.
	r := newRig(t, 4, 1, func(c *Config) { c.InboundPool = 4 }, nil)
	defer r.shutdown()
	dst := r.newEP(t, 0, 10, 5, 0)
	srcs := make([]*EndpointImage, 3)
	for i := range srcs {
		srcs[i] = r.newEP(t, i+1, 20+i, uint64(30+i), 0)
	}
	const per = 12
	for i, s := range srcs {
		for j := 0; j < per; j++ {
			r.send(i+1, s, &SendDesc{DstNI: 0, DstEP: 10, Key: 5, Handler: 1,
				Args: [4]uint64{uint64(i*100 + j)}})
		}
	}
	got := map[uint64]int{}
	for step := 0; step < 3000 && len(got) < 3*per; step++ {
		r.e.RunFor(sim.Millisecond)
		for {
			m, _ := dst.RecvQ.Pop()
			if m == nil {
				break
			}
			got[m.Args[0]]++
		}
	}
	if len(got) != 3*per {
		t.Fatalf("delivered %d/%d despite pool overruns", len(got), 3*per)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", k, n)
		}
	}
	if r.nics[0].C.Get("rx.pool_overrun") == 0 {
		t.Fatal("pool never overran despite tiny capacity")
	}
}

func TestControlPacketsBypassDataBacklog(t *testing.T) {
	// Build a deep data backlog at node 0 and verify an ACK for node 0's
	// own transmission is processed promptly (before the backlog drains),
	// i.e. no spurious retransmission happens.
	r := newRig(t, 3, 1, nil, nil)
	defer r.shutdown()
	dst := r.newEP(t, 0, 10, 5, 0)
	_ = dst
	flooder := r.newEP(t, 1, 20, 6, 0)
	sink := r.newEP(t, 2, 30, 7, 0)
	out := r.newEP(t, 0, 11, 8, 1)

	// Flood node 0 with bulk data (each takes ~180us to process).
	for j := 0; j < 30; j++ {
		r.send(1, flooder, &SendDesc{DstNI: 0, DstEP: 10, Key: 5, Handler: 1,
			Payload: make([]byte, 8192)})
	}
	// Node 0 sends one small message out; its ACK must cut the line.
	r.send(0, out, &SendDesc{DstNI: 2, DstEP: 30, Key: 7, Handler: 1})
	r.e.RunFor(20 * sim.Millisecond)
	if sink.RecvQ.Len() != 1 {
		t.Fatal("outbound message not delivered")
	}
	if r.nics[0].C.Get("tx.retrans") != 0 {
		t.Fatalf("spurious retransmissions (%d) despite control-packet priority",
			r.nics[0].C.Get("tx.retrans"))
	}
}

func TestNackBackoffGrows(t *testing.T) {
	cfg := DefaultConfig()
	e := sim.NewEngine(1)
	net := netsim.New(e, netsim.DefaultConfig(), 2)
	n := New(e, net, 0, cfg)
	defer e.Shutdown()
	d := &SendDesc{}
	var prev sim.Duration
	for i := 0; i < 5; i++ {
		before := e.Now()
		d.nackBackoff(n)
		delay := d.NextTry.Sub(before)
		if delay <= prev/2 {
			t.Fatalf("backoff not growing: step %d delay %v prev %v", i, delay, prev)
		}
		prev = delay
	}
	// Cap at RetransMax (with jitter up to 1.5x).
	for i := 0; i < 20; i++ {
		d.nackBackoff(n)
	}
	before := e.Now()
	d.nackBackoff(n)
	if got := d.NextTry.Sub(before); got > sim.Duration(float64(cfg.RetransMax)*1.5+1) {
		t.Fatalf("backoff exceeded cap: %v", got)
	}
}

func TestReconfigurationMaskedByChannelRebind(t *testing.T) {
	// §3.2/§5.1: kill one spine mid-stream. Retransmission plus channel
	// unbinding (which rebinds the message to a channel with a different
	// route) must mask the reconfiguration; every message still arrives
	// exactly once.
	r := newRig(t, 12, 4, func(c *Config) {
		c.MaxRetries = 2
		c.RetransBase = 300 * sim.Microsecond
		c.ReturnToSenderAfter = 5 * sim.Second
	}, nil)
	defer r.shutdown()
	// Hosts on different leaves so paths cross the spines.
	src := r.newEP(t, 0, 1, 1, 0)
	dst := r.newEP(t, 11, 2, 2, 0)

	const N = 40
	sent := 0
	got := map[uint64]int{}
	for step := 0; step < 4000 && len(got) < N; step++ {
		if step == 2 {
			r.net.SetSpineDown(1, true) // mid-stream failure
		}
		if step == 60 {
			r.net.SetSpineDown(1, false) // hot-swap back in
		}
		if sent < N && step%2 == 0 {
			r.send(0, src, &SendDesc{DstNI: 11, DstEP: 2, Key: 2, Handler: 1,
				Args: [4]uint64{uint64(sent)}})
			sent++
		}
		r.e.RunFor(sim.Millisecond)
		for {
			m, _ := dst.RecvQ.Pop()
			if m == nil {
				break
			}
			got[m.Args[0]]++
		}
	}
	if len(got) != N {
		t.Fatalf("delivered %d/%d across spine failure (retrans=%d unbind=%d)",
			len(got), N, r.nics[0].C.Get("tx.retrans"), r.nics[0].C.Get("tx.unbind"))
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("message %d delivered %d times", k, n)
		}
	}
}

// Property: under combined stress — tiny staging pool, packet loss, many
// concurrent senders — every message is delivered exactly once. This is the
// regression test for the NACKed-then-delivered duplicate race.
func TestExactlyOnceUnderPoolPressureProperty(t *testing.T) {
	f := func(seed int64, drop8 uint8) bool {
		drop := float64(drop8%25) / 100.0
		r := &rig{}
		e := sim.NewEngine(seed)
		ncfg := netsim.DefaultConfig()
		ncfg.DropProb = drop
		net := netsim.New(e, ncfg, 5)
		r.e, r.net = e, net
		defer e.Shutdown()
		for h := 0; h < 5; h++ {
			cfg := DefaultConfig()
			cfg.InboundPool = 4
			cfg.RetransBase = 400 * sim.Microsecond
			n := New(e, net, netsim.NodeID(h), cfg)
			d := &fakeDriver{n: n}
			n.SetDriver(d)
			r.nics = append(r.nics, n)
			r.drvs = append(r.drvs, d)
		}
		mk := func(host, id int, key uint64) *EndpointImage {
			n := r.nics[host]
			ep := NewEndpointImage(id, netsim.NodeID(host), n.cfg.RecvQDepth)
			ep.Key = key
			n.Register(ep)
			n.SubmitCmd(&DriverCmd{Op: OpLoad, EP: ep, Frame: 0})
			return ep
		}
		dst := mk(0, 10, 5)
		srcs := []*EndpointImage{mk(1, 21, 31), mk(2, 22, 32), mk(3, 23, 33), mk(4, 24, 34)}
		e.RunFor(5 * sim.Millisecond)
		const per = 10
		for i, s := range srcs {
			for j := 0; j < per; j++ {
				s.SendQ.Push(&SendDesc{SrcEP: s.ID, DstNI: 0, DstEP: 10, Key: 5,
					Handler: 1, Args: [4]uint64{uint64(i*1000 + j)}})
			}
			r.nics[i+1].PostSend()
		}
		got := map[uint64]int{}
		for step := 0; step < 4000 && len(got) < 4*per; step++ {
			e.RunFor(sim.Millisecond)
			for {
				m, _ := dst.RecvQ.Pop()
				if m == nil {
					break
				}
				got[m.Args[0]]++
			}
		}
		if len(got) != 4*per {
			return false
		}
		for _, c := range got {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReplySendQueueHasPriority(t *testing.T) {
	// An endpoint with both queued requests and queued replies must send
	// the replies first (reply progress is the deadlock-freedom rule).
	r := newRig(t, 3, 1, nil, nil)
	defer r.shutdown()
	ep := r.newEP(t, 0, 1, 1, 0)
	dreq := r.newEP(t, 1, 2, 2, 0)
	drep := r.newEP(t, 2, 3, 3, 0)

	// Queue 5 requests then 1 reply while the NI is busy elsewhere: just
	// push directly without waking, then wake once.
	for i := 0; i < 5; i++ {
		ep.SendQ.Push(&SendDesc{SrcEP: 1, DstNI: 1, DstEP: 2, Key: 2, Handler: 1})
	}
	ep.RepSendQ.Push(&SendDesc{SrcEP: 1, DstNI: 2, DstEP: 3, Key: 3, Handler: 1, IsReply: true})
	r.nics[0].PostSend()
	// After a short time, the reply must already be delivered even though
	// it was queued "after" the requests.
	r.e.RunFor(30 * sim.Microsecond)
	if drep.RepQ.Len() != 1 {
		t.Fatalf("reply not prioritized: rep=%d req=%d", drep.RepQ.Len(), dreq.RecvQ.Len())
	}
}

func TestPiggybackWithPoolOverrun(t *testing.T) {
	// Piggybacking enabled under staging-pool pressure: exactly-once and
	// liveness must hold.
	r := newRig(t, 3, 21, func(c *Config) {
		c.PiggybackAcks = true
		c.InboundPool = 4
	}, nil)
	defer r.shutdown()
	dst := r.newEP(t, 0, 10, 5, 0)
	s1 := r.newEP(t, 1, 20, 6, 0)
	s2 := r.newEP(t, 2, 21, 7, 0)
	const per = 15
	for j := 0; j < per; j++ {
		r.send(1, s1, &SendDesc{DstNI: 0, DstEP: 10, Key: 5, Handler: 1, Args: [4]uint64{uint64(j)}})
		r.send(2, s2, &SendDesc{DstNI: 0, DstEP: 10, Key: 5, Handler: 1, Args: [4]uint64{uint64(100 + j)}})
	}
	got := map[uint64]int{}
	for step := 0; step < 2000 && len(got) < 2*per; step++ {
		r.e.RunFor(sim.Millisecond)
		for {
			m, _ := dst.RecvQ.Pop()
			if m == nil {
				break
			}
			got[m.Args[0]]++
		}
	}
	if len(got) != 2*per {
		t.Fatalf("delivered %d/%d with piggyback+pool pressure", len(got), 2*per)
	}
	for k, c := range got {
		if c != 1 {
			t.Fatalf("msg %d delivered %d times", k, c)
		}
	}
}

func TestAdaptiveTimeoutSurvivesSpineFlap(t *testing.T) {
	// Adaptive timers must not prevent recovery when a route dies (the
	// estimator's RTO grows, but retransmission still rebinds channels).
	r := newRig(t, 12, 31, func(c *Config) {
		c.AdaptiveTimeout = true
		c.MaxRetries = 2
		c.ReturnToSenderAfter = 10 * sim.Second
	}, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	dst := r.newEP(t, 11, 2, 2, 0)
	got := 0
	sent := 0
	for step := 0; step < 3000 && got < 30; step++ {
		if step == 5 {
			r.net.SetSpineDown(2, true)
		}
		if step == 100 {
			r.net.SetSpineDown(2, false)
		}
		if sent < 30 && step%3 == 0 {
			r.send(0, src, &SendDesc{DstNI: 11, DstEP: 2, Key: 2, Handler: 1})
			sent++
		}
		r.e.RunFor(sim.Millisecond)
		for {
			if _, ok := dst.RecvQ.Pop(); !ok {
				break
			}
			got++
		}
	}
	if got != 30 {
		t.Fatalf("delivered %d/30 across spine flap with adaptive timers", got)
	}
}
