package core

import (
	"testing"
	"testing/quick"

	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Property: every name whose components fit the Raw encoding round-trips
// exactly through Raw/NameFromRaw.
func TestRawRoundTripProperty(t *testing.T) {
	f := func(node uint32, ep uint64) bool {
		n := EndpointName{
			node: netsim.NodeID(node % (1 << rawNodeBits)),
			ep:   int(ep % (1 << rawEpBits)),
		}
		return NameFromRaw(n.Raw()) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRawRejectsUnencodableNames(t *testing.T) {
	cases := []struct {
		name string
		n    EndpointName
	}{
		{"ep too wide", EndpointName{node: 1, ep: 1 << rawEpBits}},
		{"ep negative", EndpointName{node: 1, ep: -1}},
		{"node too wide", EndpointName{node: 1 << rawNodeBits, ep: 1}},
		{"node negative", EndpointName{node: -1, ep: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Raw(%v) did not panic; it would alias another name", tc.n)
				}
			}()
			tc.n.Raw()
		})
	}
	// Boundary values must still encode.
	ok := EndpointName{node: 1<<rawNodeBits - 1, ep: 1<<rawEpBits - 1}
	if NameFromRaw(ok.Raw()) != ok {
		t.Fatal("maximal in-range name did not round-trip")
	}
}

// Return-to-sender under endpoint churn (§3.2): while a client streams
// requests, the destination endpoint disappears. Every message must resolve
// at most once — one reply or one return-to-sender invocation, never both,
// never a duplicate — and messages sent after the endpoint is gone must be
// returned exactly once. (A message that was already deposited into the
// endpoint's receive queue when it closed was delivered exactly once and
// dies unconsumed with the endpoint; its sender sees no event.)
func TestReturnToSenderUnderChurnExactlyOnce(t *testing.T) {
	c := newCluster(t, 2, nil)
	b0 := Attach(c.Nodes[0])
	b1 := Attach(c.Nodes[1])
	e0, _ := b0.NewEndpoint(10, 8)
	e1, _ := b1.NewEndpoint(20, 8)
	e0.Map(0, e1.Name(), 20)

	const closeAt = 3 * sim.Millisecond
	replies := map[uint64]int{}
	returns := map[uint64]int{}
	e1.SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, args)
	})
	e0.SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		replies[args[0]]++
	})
	e0.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, h int, args [4]uint64, _ []byte) {
		if reason != nic.NackNoEndpoint {
			t.Errorf("return reason = %v, want no-endpoint", reason)
		}
		returns[args[0]]++
	})

	serverClosed := false
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for p.Now() < sim.Time(closeAt) {
			e1.Poll(p)
			p.Sleep(20 * sim.Microsecond)
		}
		b1.Close(p)
		serverClosed = true
	})
	var sent, sentAfterClose []uint64
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for id := uint64(1); id <= 60; id++ {
			if err := e0.Request(p, 0, 1, [4]uint64{id}); err != nil {
				t.Errorf("request %d: %v", id, err)
				return
			}
			sent = append(sent, id)
			if serverClosed {
				sentAfterClose = append(sentAfterClose, id)
			}
			p.Sleep(100 * sim.Microsecond)
		}
		// Drain all outstanding outcomes.
		for i := 0; i < 100000; i++ {
			e0.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.RunFor(2 * sim.Second)

	if !serverClosed || len(sent) != 60 {
		t.Fatalf("setup: closed=%v sent=%d", serverClosed, len(sent))
	}
	if len(sentAfterClose) == 0 {
		t.Fatal("no messages hit the closed endpoint; churn not exercised")
	}
	for _, id := range sent {
		if replies[id] > 1 || returns[id] > 1 {
			t.Fatalf("id %d: %d replies, %d returns — duplicate outcome", id, replies[id], returns[id])
		}
		if replies[id] == 1 && returns[id] == 1 {
			t.Fatalf("id %d both replied and returned", id)
		}
	}
	for _, id := range sentAfterClose {
		if returns[id] != 1 {
			t.Fatalf("id %d sent after close: %d returns, want exactly 1", id, returns[id])
		}
	}
	if len(replies) == 0 {
		t.Fatal("no replies before the churn; test degenerate")
	}
	// Returned requests must have handed their credits back.
	if e0.Credits(0) != c.Nodes[0].NIC.Config().RecvQDepth {
		t.Fatalf("credits = %d, want full window", e0.Credits(0))
	}
}
