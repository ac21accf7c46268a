package core

import (
	"bytes"
	"testing"

	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// §3.2's bounded-retry path end to end: a message to a dead host is
// retransmitted by the NI a bounded number of times and then returned to the
// sender — with the original payload and arguments intact, the credit
// restored, and within the configured return-to-sender bound. No infinite
// retransmission, no silent drop.
func TestBoundedRetryReturnsOriginalPayload(t *testing.T) {
	c := newCluster(t, 2, nil)
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

	payload := []byte("original payload, §3.2, must survive the round trip")
	wantArgs := [4]uint64{0xdead, 2, 3, 4}

	var gotPayload []byte
	var gotArgs [4]uint64
	var gotReason nic.NackReason
	gotHandler, returns := -1, 0
	var returnedAt sim.Time
	e0.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, h int, args [4]uint64, pl []byte) {
		returns++
		gotReason = reason
		gotHandler = h
		gotArgs = args
		gotPayload = append([]byte(nil), pl...)
		returnedAt = p.Now()
	})

	// The destination's link dies before the message is sent: every
	// retransmission is lost in the fabric, never NACKed.
	c.ShardNet(0).SetHostLinkDown(c.Nodes[1].ID, true)

	var sentAt sim.Time
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		sentAt = p.Now()
		if err := e0.RequestBulk(p, 0, 7, payload, wantArgs); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		for returns == 0 {
			e0.Poll(p)
			p.Sleep(20 * sim.Microsecond)
		}
	})
	c.RunFor(2 * sim.Second)

	if returns != 1 {
		t.Fatalf("returns = %d, want 1", returns)
	}
	if gotHandler != 7 {
		t.Fatalf("returned handler = %d, want 7", gotHandler)
	}
	if gotArgs != wantArgs {
		t.Fatalf("returned args = %v, want %v", gotArgs, wantArgs)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("returned payload %q, want original %q", gotPayload, payload)
	}
	if gotReason == nic.NackBadKey || gotReason == nic.NackNoEndpoint {
		t.Fatalf("dead link misreported as permanent endpoint nack: %v", gotReason)
	}
	// Bounded: returned no earlier than the retry schedule ran and no later
	// than the return-to-sender deadline plus one sweep of slack.
	cfg := c.Nodes[0].NIC.Config()
	elapsed := returnedAt.Sub(sentAt)
	if elapsed > cfg.ReturnToSenderAfter+100*sim.Millisecond {
		t.Fatalf("return took %v, want <= %v", elapsed, cfg.ReturnToSenderAfter)
	}
	// Retried (with backoff, so fewer rounds than MaxRetries may fit inside
	// the deadline) but not forever.
	if n := c.Nodes[0].NIC.C.Get("tx.retrans"); n < 1 {
		t.Fatal("message was never retransmitted before being returned")
	}
	if c.Nodes[0].NIC.C.Get("tx.timeout_return") == 0 {
		t.Fatal("return did not come from the timeout path")
	}
	if e0.Credits(0) != cfg.RecvQDepth {
		t.Fatalf("credit not restored after return: %d", e0.Credits(0))
	}
}
