package nic

import (
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

func TestRTTEstimatorConverges(t *testing.T) {
	var e rttEst
	if e.rto(100) != 0 {
		t.Fatal("rto before any sample should be 0 (unknown)")
	}
	for i := 0; i < 50; i++ {
		e.sample(1000)
	}
	rto := e.rto(0)
	// Steady samples: srtt -> 1000, rttvar -> 0; rto approaches srtt.
	if rto < 1000 || rto > 2500 {
		t.Fatalf("rto = %v after steady samples of 1us", rto)
	}
	if e.rto(5000) != 5000 {
		t.Fatal("minimum clamp not applied")
	}
}

func TestAdaptiveTimeoutAvoidsSpuriousRetransmissions(t *testing.T) {
	// With a fixed base far below the actual RTT, retransmissions are
	// rampant; the adaptive estimator must learn the true RTT and stop.
	run := func(adaptive bool) int64 {
		r := newRig(t, 2, 5, func(c *Config) {
			c.RetransBase = 100 * sim.Microsecond // far below bulk RTT
			c.AdaptiveTimeout = adaptive
			c.MinRTO = 150 * sim.Microsecond
		}, nil)
		defer r.shutdown()
		src := r.newEP(t, 0, 1, 1, 0)
		dst := r.newEP(t, 1, 2, 2, 0)
		// Warm the estimator with messages of the same class so the RTT
		// estimate reflects bulk staging latency.
		for i := 0; i < 3; i++ {
			r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1,
				Payload: make([]byte, 8192)})
			r.e.RunFor(3 * sim.Millisecond)
			dst.RecvQ.Pop()
		}
		for i := 0; i < 20; i++ {
			r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1,
				Payload: make([]byte, 8192)})
		}
		for step := 0; step < 200; step++ {
			r.e.RunFor(sim.Millisecond)
			for {
				if _, ok := dst.RecvQ.Pop(); !ok {
					break
				}
			}
			if dst.RecvQ.Len() == 0 && src.SendQ.Len() == 0 && src.inflight == 0 {
				break
			}
		}
		return r.nics[0].C.Get("tx.retrans")
	}
	fixed := run(false)
	adaptive := run(true)
	if fixed == 0 {
		t.Fatal("setup: fixed short timeout produced no retransmissions")
	}
	if adaptive*4 > fixed {
		t.Fatalf("adaptive timeout did not help: fixed=%d adaptive=%d", fixed, adaptive)
	}
}

func TestPiggybackAcksReduceControlPackets(t *testing.T) {
	// Bidirectional request/reply traffic: with piggybacking, most acks
	// ride on reply data packets instead of standalone control packets.
	run := func(piggy bool) (standalone, delivered int64) {
		r := newRig(t, 2, 7, func(c *Config) { c.PiggybackAcks = piggy }, nil)
		defer r.shutdown()
		a := r.newEP(t, 0, 1, 1, 0)
		b := r.newEP(t, 1, 2, 2, 0)
		// Ping-pong: node 1 replies to everything it gets.
		const N = 60
		for i := 0; i < N; i++ {
			r.send(0, a, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1})
		}
		for step := 0; step < 400; step++ {
			r.e.RunFor(sim.Millisecond)
			for {
				m, _ := b.RecvQ.Pop()
				if m == nil {
					break
				}
				_ = m
				// Application-level echo back.
				b.SendQ.Push(&SendDesc{SrcEP: 2, DstNI: 0, DstEP: 1, Key: 1, Handler: 2, IsReply: true})
				r.nics[1].PostSend()
			}
			for {
				if _, ok := a.RepQ.Pop(); !ok {
					break
				}
				delivered++
			}
			if delivered >= N {
				break
			}
		}
		return r.nics[1].C.Get("tx.ack") + r.nics[1].C.Get("tx.ack.flush"), delivered
	}
	ctlOff, delOff := run(false)
	ctlOn, delOn := run(true)
	if delOff < 50 || delOn < 50 {
		t.Fatalf("traffic did not flow: off=%d on=%d", delOff, delOn)
	}
	if ctlOn*2 > ctlOff {
		t.Fatalf("piggybacking did not reduce standalone acks: off=%d on=%d", ctlOff, ctlOn)
	}
}

func TestPiggybackAckDelayBound(t *testing.T) {
	// With no reverse traffic, a queued ack must still be flushed within
	// ackDelay so the sender's channel frees promptly.
	r := newRig(t, 2, 9, func(c *Config) {
		c.PiggybackAcks = true
	}, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	r.newEP(t, 1, 2, 2, 0)
	r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1})
	r.e.RunFor(2 * sim.Millisecond)
	if r.nics[0].C.Get("tx.retrans") != 0 {
		t.Fatal("retransmission despite flushed ack")
	}
	if ch := r.nics[0].freeChannel(1); ch == nil {
		t.Fatal("channel not freed by flushed batch ack")
	}
	if r.nics[1].C.Get("tx.ack.flush") != 1 {
		t.Fatalf("flush count = %d, want 1", r.nics[1].C.Get("tx.ack.flush"))
	}
}

func TestExtensionsExactlyOnceUnderDrops(t *testing.T) {
	// Both extensions on, lossy network: the exactly-once invariant holds.
	e := sim.NewEngine(13)
	ncfg := netsim.DefaultConfig()
	ncfg.DropProb = 0.2
	net := netsim.New(e, ncfg, 2)
	cfg := DefaultConfig()
	cfg.AdaptiveTimeout = true
	cfg.PiggybackAcks = true
	n0 := New(e, net, 0, cfg)
	n1 := New(e, net, 1, cfg)
	n0.SetDriver(&fakeDriver{n: n0})
	n1.SetDriver(&fakeDriver{n: n1})
	defer e.Shutdown()

	src := NewEndpointImage(1, 0, cfg.RecvQDepth)
	src.Key = 1
	n0.Register(src)
	dst := NewEndpointImage(2, 1, cfg.RecvQDepth)
	dst.Key = 2
	n1.Register(dst)
	n0.SubmitCmd(&DriverCmd{Op: OpLoad, EP: src, Frame: 0})
	n1.SubmitCmd(&DriverCmd{Op: OpLoad, EP: dst, Frame: 0})
	e.RunFor(sim.Millisecond)

	const N = 25
	for i := 0; i < N; i++ {
		src.SendQ.Push(&SendDesc{SrcEP: 1, DstNI: 1, DstEP: 2, Key: 2, Handler: 1, Args: [4]uint64{uint64(i)}})
	}
	n0.PostSend()
	got := map[uint64]int{}
	for step := 0; step < 4000 && len(got) < N; step++ {
		e.RunFor(sim.Millisecond)
		for {
			m, _ := dst.RecvQ.Pop()
			if m == nil {
				break
			}
			got[m.Args[0]]++
		}
	}
	if len(got) != N {
		t.Fatalf("delivered %d/%d with extensions under drops", len(got), N)
	}
	for k, c := range got {
		if c != 1 {
			t.Fatalf("message %d delivered %d times", k, c)
		}
	}
}

// TestPiggyAckCost pins what one piggybacked ack costs the NI that receives
// it: a reply carrying the ack for the request it answers is deposited 0.8 us
// (the firmware's ack processing) plus 53 ns (the ack's 8 wire bytes) later
// than the same reply carrying nothing.
func TestPiggyAckCost(t *testing.T) {
	r := newRig(t, 2, 9, func(c *Config) { c.PiggybackAcks = true }, nil)
	defer r.shutdown()
	a := r.newEP(t, 0, 1, 1, 0)
	b := r.newEP(t, 1, 2, 2, 0)
	reply := func() (sim.Duration, int64) {
		acks := r.nics[0].C.Get("rx.ack.piggy")
		sent := r.e.Now()
		r.send(1, b, &SendDesc{DstNI: 0, DstEP: 1, Key: 1, Handler: 2, IsReply: true})
		r.e.RunFor(sim.Millisecond)
		m, _ := a.RepQ.Pop()
		if m == nil {
			t.Fatal("reply not delivered")
		}
		return m.Arrive.Sub(sent), r.nics[0].C.Get("rx.ack.piggy") - acks
	}
	// The request's ack waits at node 1 for ackDelay (40 us); a reply
	// posted within it carries the ack.
	r.send(0, a, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1})
	r.e.RunFor(20 * sim.Microsecond)
	if _, ok := b.RecvQ.Pop(); !ok {
		t.Fatal("request not delivered within 20us")
	}
	carrying, n1 := reply()
	bare, n2 := reply()
	if n1 != 1 || n2 != 0 {
		t.Fatalf("piggybacked acks per reply = %d, %d; want 1, 0", n1, n2)
	}
	if d := carrying - bare; d != 853 {
		t.Fatalf("a piggybacked ack delays its carrier by %v, want 853ns (0.8us + 8 wire bytes)", d)
	}
}
