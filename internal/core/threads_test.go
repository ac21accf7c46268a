package core

import (
	"testing"

	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// §3.3: "one thread may operate upon multiple endpoints".
func TestOneThreadManyEndpoints(t *testing.T) {
	c := newCluster(t, 3, nil)
	b0 := Attach(c.Nodes[0])
	epA, _ := b0.NewEndpoint(1, 4)
	epB, _ := b0.NewEndpoint(2, 4)
	b1 := Attach(c.Nodes[1])
	peerA, _ := b1.NewEndpoint(3, 4)
	b2 := Attach(c.Nodes[2])
	peerB, _ := b2.NewEndpoint(4, 4)

	epA.Map(0, peerA.Name(), 3)
	peerA.Map(0, epA.Name(), 1)
	epB.Map(0, peerB.Name(), 4)
	peerB.Map(0, epB.Name(), 2)

	gotA, gotB := 0, 0
	peerA.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { tok.Reply(p, 2, a) })
	peerB.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { tok.Reply(p, 2, a) })
	epA.SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { gotA++ })
	epB.SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { gotB++ })

	c.Nodes[1].Spawn("srvA", func(p *sim.Proc) {
		for gotA < 5 {
			peerA.Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.Nodes[2].Spawn("srvB", func(p *sim.Proc) {
		for gotB < 5 {
			peerB.Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	// One thread drives both endpoints.
	c.Nodes[0].Spawn("multi", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			epA.Request(p, 0, 1, [4]uint64{uint64(i)})
			epB.Request(p, 0, 1, [4]uint64{uint64(i)})
		}
		for gotA < 5 || gotB < 5 {
			b0.Poll(p) // bundle-wide poll services both endpoints
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.RunFor(sim.Second)
	if gotA != 5 || gotB != 5 {
		t.Fatalf("gotA=%d gotB=%d, want 5/5", gotA, gotB)
	}
}

// §3.3: "many threads may concurrently access a single endpoint" (shared
// mode performs the necessary synchronization).
func TestManyThreadsOneSharedEndpoint(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e0.SetMode(Shared)

	served := 0
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		served++
		tok.Reply(p, 2, a)
	})
	replies := 0
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) { replies++ })

	done := false
	c.Nodes[1].Spawn("srv", func(p *sim.Proc) {
		for !done {
			e1.Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	const threads, per = 4, 8
	finished := 0
	for th := 0; th < threads; th++ {
		c.Nodes[0].Spawn("worker", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				if err := e0.Request(p, 0, 1, [4]uint64{uint64(i)}); err != nil {
					t.Errorf("request: %v", err)
				}
				e0.Poll(p)
			}
			finished++
		})
	}
	c.Nodes[0].Spawn("drain", func(p *sim.Proc) {
		for replies < threads*per {
			e0.Poll(p)
			p.Sleep(5 * sim.Microsecond)
		}
		done = true
	})
	c.RunFor(2 * sim.Second)
	if finished != threads || replies != threads*per {
		t.Fatalf("finished=%d replies=%d", finished, replies)
	}
	if served != threads*per {
		t.Fatalf("served = %d", served)
	}
}

// Multiple bundles (processes) on the same node, each with endpoints: the
// general-purpose usage model of Fig. 1.
func TestMultipleProcessesPerNode(t *testing.T) {
	c := newCluster(t, 2, nil)
	// Two "processes" on node 0 talk to two services on node 1.
	var clients []*Endpoint
	var servers []*Endpoint
	for i := 0; i < 2; i++ {
		bc := Attach(c.Nodes[0])
		bs := Attach(c.Nodes[1])
		ce, _ := bc.NewEndpoint(Key(10+i), 4)
		se, _ := bs.NewEndpoint(Key(20+i), 4)
		ce.Map(0, se.Name(), Key(20+i))
		se.Map(0, ce.Name(), Key(10+i))
		clients = append(clients, ce)
		servers = append(servers, se)
	}
	done := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		servers[i].SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
			tok.Reply(p, 2, a)
		})
		clients[i].SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
			done[i] = true
		})
		c.Nodes[1].Spawn("srv", func(p *sim.Proc) {
			for !done[i] {
				servers[i].Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
		})
		c.Nodes[0].Spawn("cli", func(p *sim.Proc) {
			clients[i].Request(p, 0, 1, [4]uint64{})
			for !done[i] {
				clients[i].Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	c.RunFor(sim.Second)
	if !done[0] || !done[1] {
		t.Fatalf("done = %v", done)
	}
}

// A handler must not be able to reply twice.
func TestDoubleReplyRejected(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	var second error
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		if err := tok.Reply(p, 2, a); err != nil {
			t.Errorf("first reply: %v", err)
		}
		second = tok.Reply(p, 2, a)
	})
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {})
	handled := false
	c.Nodes[1].Spawn("srv", func(p *sim.Proc) {
		for !handled {
			if e1.Poll(p) > 0 {
				handled = true
			}
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.Nodes[0].Spawn("cli", func(p *sim.Proc) {
		e0.Request(p, 0, 1, [4]uint64{})
	})
	c.RunFor(sim.Second)
	if second == nil {
		t.Fatal("double reply succeeded")
	}
}

// Replying to a reply is rejected (the request/reply paradigm).
func TestReplyToReplyRejected(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		tok.Reply(p, 2, a)
	})
	var replyErr error
	got := false
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, a [4]uint64, _ []byte) {
		replyErr = tok.Reply(p, 3, a)
		got = true
	})
	c.Nodes[1].Spawn("srv", func(p *sim.Proc) {
		for !got {
			e1.Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.Nodes[0].Spawn("cli", func(p *sim.Proc) {
		e0.Request(p, 0, 1, [4]uint64{})
		for !got {
			e0.Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	c.RunFor(sim.Second)
	if !got {
		t.Fatal("reply never arrived")
	}
	if replyErr == nil {
		t.Fatal("reply-to-reply succeeded")
	}
}

func TestEventMaskDisarmStopsWakeups(t *testing.T) {
	c := newCluster(t, 2, nil)
	e0, e1 := pair(t, c)
	e1.SetEventMask(true)
	e1.SetEventMask(false) // disarm again
	woke := false
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		woke = e1.Bundle().WaitTimeout(p, 30*sim.Millisecond)
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		e0.Request(p, 0, 1, [4]uint64{})
	})
	c.RunFor(sim.Second)
	if woke {
		t.Fatal("disarmed endpoint woke the bundle")
	}
}

func TestReturnedBulkPayloadIntact(t *testing.T) {
	// A bulk request returned to sender must carry its payload back so the
	// application can re-issue it.
	c := newCluster(t, 2, nil)
	b0 := Attach(c.Nodes[0])
	b1 := Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(10, 8)
	e1, _ := b1.NewEndpoint(20, 8)
	e0.Map(0, e1.Name(), 999) // wrong key -> returned

	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	var back []byte
	returned := false
	e0.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, pl []byte) {
		back, returned = pl, true
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		e0.RequestBulk(p, 0, 1, payload, [4]uint64{})
		for !returned {
			e0.Poll(p)
			p.Sleep(20 * sim.Microsecond)
		}
	})
	c.RunFor(sim.Second)
	if len(back) != len(payload) || back[100] != payload[100] {
		t.Fatalf("returned payload corrupted: len=%d", len(back))
	}
}

func TestBundlePollAcrossEndpoints(t *testing.T) {
	// Bundle.Poll must service every endpoint in the bundle.
	c := newCluster(t, 3, nil)
	b0 := Attach(c.Nodes[0])
	a, _ := b0.NewEndpoint(1, 4)
	bb, _ := b0.NewEndpoint(2, 4)
	p1 := Attach(c.Nodes[1])
	peer1, _ := p1.NewEndpoint(3, 4)
	p2 := Attach(c.Nodes[2])
	peer2, _ := p2.NewEndpoint(4, 4)
	peer1.Map(0, a.Name(), 1)
	peer2.Map(0, bb.Name(), 2)
	gotA, gotB := 0, 0
	a.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) { gotA++ })
	bb.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) { gotB++ })
	c.Nodes[1].Spawn("s1", func(p *sim.Proc) { peer1.Request(p, 0, 1, [4]uint64{}) })
	c.Nodes[2].Spawn("s2", func(p *sim.Proc) { peer2.Request(p, 0, 1, [4]uint64{}) })
	c.Nodes[0].Spawn("poller", func(p *sim.Proc) {
		for gotA+gotB < 2 {
			b0.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.RunFor(sim.Second)
	if gotA != 1 || gotB != 1 {
		t.Fatalf("gotA=%d gotB=%d", gotA, gotB)
	}
}

func TestNewEndpointAfterCloseFails(t *testing.T) {
	c := newCluster(t, 2, nil)
	b := Attach(c.Nodes[0])
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		b.Close(p)
	})
	c.RunFor(sim.Millisecond)
	if _, err := b.NewEndpoint(1, 2); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSetHandlerBounds(t *testing.T) {
	c := newCluster(t, 2, nil)
	b := Attach(c.Nodes[0])
	ep, _ := b.NewEndpoint(1, 2)
	if err := ep.SetHandler(-1, nil); err != ErrNoHandler {
		t.Fatal("negative handler index accepted")
	}
	if err := ep.SetHandler(NumHandlers, nil); err != ErrNoHandler {
		t.Fatal("out-of-range handler index accepted")
	}
}
