package core

import (
	"testing"
	"testing/quick"

	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

func newCluster(t *testing.T, n int, mod func(*hostos.ClusterConfig)) *hostos.Cluster {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	if mod != nil {
		mod(&cfg)
	}
	c := hostos.NewCluster(1, n, cfg)
	t.Cleanup(c.Shutdown)
	return c
}

// pair builds two mapped endpoints on nodes 0 and 1.
func pair(t *testing.T, c *hostos.Cluster) (*Endpoint, *Endpoint) {
	t.Helper()
	b0 := Attach(c.Nodes[0])
	b1 := Attach(c.Nodes[1])
	e0, err := b0.NewEndpoint(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := b1.NewEndpoint(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e0.Map(0, e1.Name(), 20); err != nil {
		t.Fatal(err)
	}
	if err := e1.Map(0, e0.Name(), 10); err != nil {
		t.Fatal(err)
	}
	return e0, e1
}

func TestRequestReplyPingPong(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)

	served, replies := 0, 0
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		served++
		if err := tok.Reply(p, 2, [4]uint64{args[0] + 1}); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	var got uint64
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		replies++
		got = args[0]
	})

	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for got == 0 {
			e1.Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		if err := e0.Request(p, 0, 1, [4]uint64{41}); err != nil {
			t.Errorf("request: %v", err)
		}
		for got == 0 {
			e0.Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	c.RunFor(100 * sim.Millisecond)
	if got != 42 {
		t.Fatalf("reply arg = %d, want 42", got)
	}
	if served != 1 || replies != 1 {
		t.Fatalf("served %d requests and %d replies, want 1 each", served, replies)
	}
	// Credit restored by the reply.
	if e0.Credits(0) != c.Nodes[0].NIC.Config().RecvQDepth {
		t.Fatalf("credits = %d, want full window", e0.Credits(0))
	}
}

func TestBulkRoundTrip(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)

	var received []byte
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte) {
		received = payload
		tok.Reply(p, 2, [4]uint64{uint64(len(payload))})
	})
	var done bool
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) { done = true })

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for !done {
			e1.Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		if err := e0.RequestBulk(p, 0, 1, payload, [4]uint64{}); err != nil {
			t.Errorf("bulk: %v", err)
		}
		for !done {
			e0.Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	c.RunFor(200 * sim.Millisecond)
	if !done {
		t.Fatal("bulk round trip never completed")
	}
	if len(received) != 8192 || received[100] != payload[100] {
		t.Fatal("bulk payload corrupted")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, _ := pair(t, c)
	var err error
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		err = e0.RequestBulk(p, 0, 1, make([]byte, 9000), [4]uint64{})
	})
	c.RunFor(sim.Millisecond)
	if err != ErrPayloadSize {
		t.Fatalf("err = %v, want ErrPayloadSize", err)
	}
}

func TestBadTranslationIndex(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, _ := pair(t, c)
	var errUnset, errRange error
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		errUnset = e0.Request(p, 3, 1, [4]uint64{}) // slot never mapped
		errRange = e0.Request(p, 99, 1, [4]uint64{})
	})
	c.RunFor(sim.Millisecond)
	if errUnset != ErrBadIndex || errRange != ErrBadIndex {
		t.Fatalf("errs = %v, %v; want ErrBadIndex", errUnset, errRange)
	}
}

func TestCreditWindowBlocks(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	window := c.Nodes[0].NIC.Config().RecvQDepth

	// Server replies to everything, but only when polled; client fires
	// window+10 requests. The client must block at the window and finish
	// only as replies restore credits.
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, args)
	})
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {})

	sent := 0
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for sent < window+10 {
			e1.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := 0; i < window+10; i++ {
			if err := e0.Request(p, 0, 1, [4]uint64{uint64(i)}); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			sent++
		}
	})
	c.RunFor(sim.Second)
	if sent != window+10 {
		t.Fatalf("sent = %d, want %d (deadlocked on credits?)", sent, window+10)
	}
}

// TestPostWaitsAtSendQDepth: a send queue holds nic.SendQDepth descriptors.
// Behind a head whose destination host is dead and whose channels are all
// taken, the post after the queue fills waits, counted once as a send-queue
// stall, and the queue never passes its depth.
func TestPostWaitsAtSendQDepth(t *testing.T) {
	const dead = 2
	c := newCluster(t, 3, nil)
	c.EnableObs(obs.Options{})
	c.NetFor(dead).SetHostLinkDown(dead, true)
	b := Attach(c.Nodes[0])
	w, err := b.NewEndpoint(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	window := c.Nodes[0].NIC.Config().RecvQDepth
	for i := 0; i < 3; i++ { // three credit windows: more than the queue holds
		w.Map(i, EndpointName{node: dead, ep: 9_000 + i}, 1)
	}
	sq := &w.Segment().EP.SendQ
	posted, deepest := 0, 0
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for i := 0; w.Request(p, i/window, 1, [4]uint64{}) == nil; i++ {
			posted++
			deepest = max(deepest, sq.Len())
		}
	})
	// Well before the first retransmission timeout could unbind a message.
	c.RunFor(5 * sim.Millisecond)
	inflight := c.Nodes[0].NIC.Config().Channels
	if posted != inflight+nic.SendQDepth || sq.Len() != nic.SendQDepth || deepest != nic.SendQDepth {
		t.Fatalf("posted %d, queue %d (deepest %d); want %d posted and the queue at its depth %d",
			posted, sq.Len(), deepest, inflight+nic.SendQDepth, nic.SendQDepth)
	}
	if got := b.C.Get("sendq_stall"); got != 1 {
		t.Fatalf("sendq_stall = %d, want 1", got)
	}
}

func TestReturnToSenderRestoresCreditAndRunsHandler(t *testing.T) {
	c := newCluster(t, 2, nil)
	b0 := Attach(c.Nodes[0])
	b1 := Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(10, 8)
	e1, _ := b1.NewEndpoint(20, 8)
	// Map with the WRONG key: messages will be NACKed bad-key and returned.
	e0.Map(0, e1.Name(), 999)

	var returned nic.NackReason
	var retHandler int
	e0.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, h int, args [4]uint64, _ []byte) {
		returned = reason
		retHandler = h
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		e0.Request(p, 0, 7, [4]uint64{1})
		for retHandler == 0 {
			e0.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.RunFor(500 * sim.Millisecond)
	if returned != nic.NackBadKey || retHandler != 7 {
		t.Fatalf("return handler got (%v, %d), want (bad-key, 7)", returned, retHandler)
	}
	if e0.Credits(0) != c.Nodes[0].NIC.Config().RecvQDepth {
		t.Fatalf("credit not restored after return: %d", e0.Credits(0))
	}
}

func TestEventDrivenWait(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e1.SetEventMask(true)

	var served bool
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		served = true
		tok.Reply(p, 2, args)
	})
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {})

	var wokeAt sim.Time
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		e1.Bundle().Wait(p)
		wokeAt = p.Now()
		e1.Poll(p)
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		e0.Request(p, 0, 1, [4]uint64{5})
	})
	c.RunFor(sim.Second)
	if !served {
		t.Fatal("server never served the request")
	}
	if wokeAt < sim.Time(10*sim.Millisecond) {
		t.Fatalf("server woke at %v, before the request was sent", wokeAt)
	}
}

func TestWaitTimeout(t *testing.T) {
	c := newCluster(t, 2, nil)
	_, e1 := pair(t, c)
	e1.SetEventMask(true)
	var got bool
	var at sim.Time
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		got = e1.Bundle().WaitTimeout(p, 5*sim.Millisecond)
		at = p.Now()
	})
	c.RunFor(sim.Second)
	if got {
		t.Fatal("WaitTimeout reported an event on an idle bundle")
	}
	if at != sim.Time(5*sim.Millisecond) {
		t.Fatalf("timed out at %v, want 5ms", at)
	}
}

func TestUnarmedEndpointDoesNotWake(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e1.SetEventMask(false) // polling-mode endpoint
	var woke bool
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		woke = e1.Bundle().WaitTimeout(p, 50*sim.Millisecond)
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		e0.Request(p, 0, 1, [4]uint64{1})
	})
	c.RunFor(sim.Second)
	if woke {
		t.Fatal("Wait woke for an unarmed endpoint")
	}
	if e1.seg.EP.PendingRecvs() != 1 {
		t.Fatal("message was not delivered")
	}
}

func TestVirtualNetworkVNNAddressing(t *testing.T) {
	const N = 4
	c := newCluster(t, N, nil)
	eps := make([]*Endpoint, N)
	for i := 0; i < N; i++ {
		b := Attach(c.Nodes[i])
		ep, err := b.NewEndpoint(Key(100+i), N)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	if err := MakeVirtualNetwork(eps); err != nil {
		t.Fatal(err)
	}
	// Every node requests from every other using virtual node numbers.
	recvCount := make([]int, N)
	doneCount := 0
	for i := 0; i < N; i++ {
		i := i
		eps[i].SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
			recvCount[i]++
			tok.Reply(p, 2, args)
		})
		eps[i].SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {})
		c.Nodes[i].Spawn("peer", func(p *sim.Proc) {
			for j := 0; j < N; j++ {
				if j == i {
					continue
				}
				if err := eps[i].Request(p, j, 1, [4]uint64{uint64(i)}); err != nil {
					t.Errorf("node %d -> %d: %v", i, j, err)
				}
			}
			for step := 0; step < 100000; step++ {
				eps[i].Poll(p)
				p.Sleep(5 * sim.Microsecond)
				if recvCount[i] == N-1 && eps[i].Stats.Delivered >= int64(2*(N-1)) {
					break
				}
			}
			doneCount++
		})
	}
	c.RunFor(2 * sim.Second)
	for i := 0; i < N; i++ {
		if recvCount[i] != N-1 {
			t.Fatalf("node %d received %d requests, want %d", i, recvCount[i], N-1)
		}
	}
}

func TestCloseFreesEndpoints(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, _ := pair(t, c)
	b := e0.Bundle()
	var errAfter error
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		e0.Request(p, 0, 1, [4]uint64{1})
		b.Close(p)
		errAfter = e0.Request(p, 0, 1, [4]uint64{2})
	})
	c.RunFor(sim.Second)
	if errAfter != ErrClosed {
		t.Fatalf("request after close = %v, want ErrClosed", errAfter)
	}
	if c.Nodes[0].NIC.FreeFrames() != c.Nodes[0].NIC.Config().Frames {
		t.Fatal("frames leaked after close")
	}
}

func TestSharedModeCostsMore(t *testing.T) {
	// Operations on shared endpoints take a lock (§3.3); exclusive
	// endpoints avoid that overhead. A single isolated request differs by
	// exactly the lock cost.
	run := func(mode Mode) sim.Time {
		cfg := hostos.DefaultClusterConfig()
		c := hostos.NewCluster(1, 2, cfg)
		defer c.Shutdown()
		b0 := Attach(c.Nodes[0])
		b1 := Attach(c.Nodes[1])
		e0, _ := b0.NewEndpoint(1, 4)
		e1, _ := b1.NewEndpoint(2, 4)
		e0.Map(0, e1.Name(), 2)
		e0.SetMode(mode)
		var done sim.Time
		c.Nodes[0].Spawn("client", func(p *sim.Proc) {
			e0.Request(p, 0, 1, [4]uint64{})
			done = p.Now()
		})
		c.RunFor(sim.Second)
		return done
	}
	excl := run(exclusive)
	shared := run(Shared)
	if shared.Sub(excl) != sharedLockCost {
		t.Fatalf("shared-exclusive = %v, want exactly the lock cost %v",
			shared.Sub(excl), sharedLockCost)
	}
}

// Property: for any request count, every request gets exactly one reply and
// the credit window returns to its initial value.
func TestCreditConservationProperty(t *testing.T) {
	f := func(n8 uint8, seed int64) bool {
		n := int(n8%80) + 1
		cfg := hostos.DefaultClusterConfig()
		c := hostos.NewCluster(seed, 2, cfg)
		defer c.Shutdown()
		b0 := Attach(c.Nodes[0])
		b1 := Attach(c.Nodes[1])
		e0, _ := b0.NewEndpoint(1, 4)
		e1, _ := b1.NewEndpoint(2, 4)
		e0.Map(0, e1.Name(), 2)
		e1.Map(0, e0.Name(), 1)
		window := c.Nodes[0].NIC.Config().RecvQDepth

		replies := 0
		e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
			tok.Reply(p, 2, args)
		})
		e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) { replies++ })

		serverDone := false
		c.Nodes[1].Spawn("server", func(p *sim.Proc) {
			for !serverDone {
				e1.Poll(p)
				p.Sleep(5 * sim.Microsecond)
			}
		})
		c.Nodes[0].Spawn("client", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				e0.Request(p, 0, 1, [4]uint64{uint64(i)})
			}
			for replies < n {
				e0.Poll(p)
				p.Sleep(5 * sim.Microsecond)
			}
			serverDone = true
		})
		c.RunFor(5 * sim.Second)
		return replies == n && e0.Credits(0) == window
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
