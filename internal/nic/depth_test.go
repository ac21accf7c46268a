package nic

import (
	"testing"

	"virtnet/internal/sim"
)

// The endpoint queues are Deques reserved at their depth; nothing in the
// type stops a push past it. These tests pin each place the firmware refuses
// at the paper's depth.

// newShallowEP registers and loads an endpoint whose receive queues hold
// depth messages.
func (r *rig) newShallowEP(t *testing.T, host, id int, key uint64, depth int) *EndpointImage {
	t.Helper()
	ep := NewEndpointImage(id, r.nics[host].id, depth)
	ep.Key = key
	r.nics[host].Register(ep)
	r.nics[host].SubmitCmd(&DriverCmd{Op: OpLoad, EP: ep, Frame: 0})
	r.e.RunFor(5 * sim.Millisecond)
	if !ep.Resident() {
		t.Fatalf("endpoint %d not resident", id)
	}
	return ep
}

// TestFullReplyQueueSpillsReturns: a message returned to a sender whose
// reply queue is full goes to the overflow list, counted, and the host still
// pops every return, in the order they became visible.
func TestFullReplyQueueSpillsReturns(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newShallowEP(t, 0, 100, 7, 2)
	for i := 0; i < 5; i++ { // endpoint 555 does not exist: each one returns
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 555, Key: 9, Handler: 2, Args: [4]uint64{uint64(i)}})
	}
	r.e.RunFor(20 * sim.Millisecond)
	if src.RepQ.Len() != 2 || src.retOverflow.Len() != 3 {
		t.Fatalf("reply queue %d, overflow %d; want 2 (its depth) and 3", src.RepQ.Len(), src.retOverflow.Len())
	}
	if got := r.nics[0].C.Get("rts.overflow"); got != 3 {
		t.Fatalf("rts.overflow = %d, want 3", got)
	}
	if got := r.nics[0].C.Get("rts.delivered"); got != 5 {
		t.Fatalf("rts.delivered = %d, want 5", got)
	}
	if src.PendingRecvs() != 5 {
		t.Fatalf("PendingRecvs = %d, want 5", src.PendingRecvs())
	}
	var last sim.Time
	for i := 0; i < 5; i++ {
		next, ok := src.NextVisible()
		m, _ := src.PopRecv(r.e.Now())
		if !ok || m == nil || m.Visible != next {
			t.Fatalf("pop %d: %v (next visible %v, %v)", i, m, next, ok)
		}
		if !m.IsReturn || m.Reason != NackNoEndpoint || m.Args[0] != uint64(i) || m.Visible < last {
			t.Fatalf("pop %d: return of %d at %v (reason %v) after %v; want %d in visibility order",
				i, m.Args[0], m.Visible, m.Reason, last, i)
		}
		last = m.Visible
	}
	if m, ok := src.PopRecv(r.e.Now()); ok {
		t.Fatalf("a sixth message: %+v", m)
	}
}

// TestSpilledReturnsPopBeforeLaterOnes: once the host pops from a full
// reply queue, a later return lands in the queue behind returns that
// spilled earlier, and the host still pops every return in the order they
// became visible.
func TestSpilledReturnsPopBeforeLaterOnes(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newShallowEP(t, 0, 100, 7, 2)
	ret := func(i int) { // endpoint 555 does not exist: the message returns
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 555, Key: 9, Handler: 2, Args: [4]uint64{uint64(i)}})
		r.e.RunFor(20 * sim.Millisecond)
	}
	pop := func(want int) {
		t.Helper()
		next, ok := src.NextVisible()
		m, _ := src.PopRecv(r.e.Now())
		if !ok || m == nil || m.Visible != next || !m.IsReturn || m.Args[0] != uint64(want) {
			t.Fatalf("pop: %+v (next visible %v, %v), want the return of %d", m, next, ok, want)
		}
	}
	for i := 0; i < 3; i++ {
		ret(i)
	}
	if src.RepQ.Len() != 2 || src.retOverflow.Len() != 1 {
		t.Fatalf("reply queue %d, overflow %d; want 2 and 1", src.RepQ.Len(), src.retOverflow.Len())
	}
	pop(0)
	ret(3)
	for _, want := range []int{1, 2, 3} {
		pop(want)
	}
	if m, ok := src.PopRecv(r.e.Now()); ok {
		t.Fatalf("a fifth message: %+v", m)
	}
}

// TestRequeueRefusesAtSendQDepth: a NACKed message whose send queue filled
// while it was on the wire cannot go back to the head of the queue; it
// returns to its sender and the queue stays at its depth.
func TestRequeueRefusesAtSendQDepth(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 100, 7, 0)
	r.newEP(t, 1, 200, 9, -1) // registered, never made resident: NACKs not-resident
	r.send(0, src, &SendDesc{DstNI: 1, DstEP: 200, Key: 9, Handler: 1, Args: [4]uint64{1}})
	for src.SendQ.Len() > 0 {
		r.e.RunFor(sim.Microsecond)
	}
	// Fill the queue behind a head in backoff, so the NI sends none of it.
	for i := 0; i < SendQDepth; i++ {
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 200, Key: 9, Handler: 1,
			Args: [4]uint64{2}, NextTry: r.e.Now().Add(sim.Second)})
	}
	r.e.RunFor(5 * sim.Millisecond)
	if src.SendQ.Len() != SendQDepth {
		t.Fatalf("send queue holds %d, want its depth %d", src.SendQ.Len(), SendQDepth)
	}
	m, ok := src.PopRecv(r.e.Now())
	if !ok || !m.IsReturn || m.Reason != NackNotResident || m.Args[0] != 1 {
		t.Fatalf("got %+v, want the NACKed message returned not-resident", m)
	}
}

// TestSendSpaceRingsOnceFromFull: the send-space doorbell rings when the
// firmware takes a send queue from full to not full, and at no other send.
func TestSendSpaceRingsOnceFromFull(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 100, 7, 0)
	dst := r.newEP(t, 1, 200, 9, 0)
	rings := 0
	src.OnSendSpace = func() { rings++ }
	for i := 0; i < SendQDepth; i++ {
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 200, Key: 9, Handler: 1, Args: [4]uint64{uint64(i)}})
	}
	for got := 0; got < SendQDepth; {
		r.e.RunFor(sim.Millisecond)
		for {
			if _, ok := dst.PopRecv(r.e.Now()); !ok {
				break
			}
			got++
		}
	}
	if rings != 1 {
		t.Fatalf("doorbell rang %d times draining a full queue, want 1", rings)
	}
}

// TestDepositsNeverPassTheDepth: accept checks a receive queue's depth when
// a data packet arrives, and deposit pushes after the payload DMA. Nothing
// pushes to an endpoint's receive queues in between (the firmware is busy
// with the DMA; returns are deposited by firmware actions too), so no
// deposit ever finds its queue full. Bulk replies and returns race for a
// 2-deep reply queue that is never drained; every deposit is checked.
func TestDepositsNeverPassTheDepth(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	x := r.newShallowEP(t, 0, 100, 7, 2)
	y := r.newEP(t, 1, 200, 9, 0)
	deposits := 0
	x.OnDeliver = func(*RecvMsg) {
		deposits++
		if x.RepQ.Len() > 2 || x.RecvQ.Len() > 2 {
			t.Fatalf("deposit %d: reply queue %d, request queue %d; depth 2", deposits, x.RepQ.Len(), x.RecvQ.Len())
		}
	}
	for i := 0; i < 8; i++ {
		r.send(1, y, &SendDesc{DstNI: 0, DstEP: 100, Key: 7, Handler: 1, IsReply: true,
			Payload: make([]byte, 1024), Args: [4]uint64{uint64(i)}})
		r.send(0, x, &SendDesc{DstNI: 1, DstEP: 555, Key: 9, Handler: 2})
		r.send(1, y, &SendDesc{DstNI: 0, DstEP: 100, Key: 7, Handler: 1, Payload: make([]byte, 512)})
	}
	r.e.RunFor(20 * sim.Millisecond)
	if x.RepQ.Len() != 2 || x.RecvQ.Len() != 2 || r.nics[0].C.Get("tx.nack.overrun") == 0 {
		t.Fatalf("reply queue %d, request queue %d, %d overrun NACKs; want both full and NACKs sent",
			x.RepQ.Len(), x.RecvQ.Len(), r.nics[0].C.Get("tx.nack.overrun"))
	}
	if x.retOverflow.Len() == 0 {
		t.Fatal("no return spilled: the returns never met a full reply queue")
	}
}

var imageSink *EndpointImage

// TestEndpointImageAllocatesItsQueuesOnce: an image and its four queues,
// each reserved at its depth, are five allocations.
func TestEndpointImageAllocatesItsQueuesOnce(t *testing.T) {
	if avg := testing.AllocsPerRun(20, func() {
		imageSink = NewEndpointImage(1, 0, 32)
	}); avg != 5 {
		t.Fatalf("NewEndpointImage costs %.1f allocations, want 5", avg)
	}
}
