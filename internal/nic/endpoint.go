package nic

import (
	"virtnet/internal/container"
	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// EPState is the residency/service state of an endpoint image as seen by
// the NI. (The host OS keeps its own four-state view; see internal/hostos.)
type EPState int

const (
	// EPHost: the image lives in host memory; the NI cannot service it.
	EPHost EPState = iota
	// EPResident: the image occupies an NI endpoint frame.
	EPResident
	// EPQuiescing: the driver asked to unload/free the image but it still
	// has unacknowledged messages in flight; no new sends are started and
	// the unload completes when the last in-flight message resolves
	// (the transient states of §5.3).
	EPQuiescing
)

// SendDesc is one entry in an endpoint's send descriptor queue.
type SendDesc struct {
	DstNI   netsim.NodeID
	DstEP   int
	Key     uint64
	SrcEP   int
	Handler int
	IsReply bool
	Args    [4]uint64
	Payload []byte // nil for short messages; <= MTU (library fragments)
	// ReplyKey is the sender's endpoint key, carried so the receiver's
	// reply can pass the sender's protection check.
	ReplyKey uint64
	// MsgID is an end-to-end per-(source,destination)-endpoint message
	// number assigned once when the message is created. It survives channel
	// unbinding and rebinding, which retransmit under fresh channel
	// sequence numbers; the receiver uses it to discard duplicates so
	// delivery stays exactly-once (§5.3's "carefully unbinds").
	MsgID uint64

	// NextTry delays service after a NACK (backoff); zero means ready.
	NextTry sim.Time
	// FirstSend is when the first transmission attempt happened; used for
	// the prolonged-absence return-to-sender bound.
	FirstSend sim.Time
	// Flight is the observability trace context for a sampled message
	// (nil otherwise). The NI marks stage boundaries on it as the
	// descriptor moves through WRR service and injection.
	Flight *obs.Flight

	// nacks counts transient NACKs for this message, driving the
	// descriptor-level exponential backoff.
	nacks int

	// owner points at the NI whose free list holds this descriptor (nil for
	// descriptors tests build directly, which are never recycled); fnext
	// links the free list. A descriptor is dead once its message is
	// acknowledged or returned to its sender: the NI that resolves it frees
	// it, after the last read. The payload slice is not owned and is never
	// recycled.
	owner *NIC
	fnext *SendDesc
}

// AllocDesc returns a zeroed send descriptor from the NI's free list, or a
// new one. The library fills it and pushes it on an endpoint's send queue;
// the NI recycles it when the message resolves.
func (n *NIC) AllocDesc() *SendDesc {
	if d := n.descFree; d != nil {
		n.descFree = d.fnext
		d.fnext = nil
		return d
	}
	n.descMade++
	return &SendDesc{owner: n}
}

// freeDesc returns a dead pooled descriptor to this NI's free list — the NI
// that resolved it, which after a migration need not be the one it came
// from. Callers must not touch the descriptor afterwards.
func (n *NIC) freeDesc(d *SendDesc) {
	if d.owner == nil {
		return
	}
	*d = SendDesc{owner: n, fnext: n.descFree}
	n.descFree = d
}

// RecvMsg is one entry in an endpoint's receive queue.
type RecvMsg struct {
	SrcNI    netsim.NodeID
	SrcEP    int
	Handler  int
	IsReply  bool
	IsReturn bool // undeliverable message returned to sender (§3.2)
	Reason   NackReason
	Args     [4]uint64
	Payload  []byte
	ReplyKey uint64
	// MsgID and Key are populated only on returned messages: they carry the
	// original end-to-end id and protection key so a returned message can be
	// re-issued verbatim (the migration redirect preserves MsgID so the
	// destination's duplicate suppression keeps delivery exactly-once).
	MsgID  uint64
	Key    uint64
	Arrive sim.Time
	// Visible is when a host poll can first observe the message (deposit
	// plus SBUS descriptor read latency).
	Visible sim.Time
	// Flight carries the sampled message's trace context to the host
	// dispatch path (nil when untraced; never set on returned messages —
	// their flight was already finalized as dropped).
	Flight *obs.Flight

	// owner points at the NI whose free list recycles this message (nil for
	// directly built test messages); fnext links the free list. The message
	// is dead once the host has dispatched it — handlers receive the args
	// and payload, never the descriptor — so the poller returns it with
	// Free. The payload slice is not owned and is never recycled.
	owner *NIC
	fnext *RecvMsg
}

// Free returns a pooled receive descriptor to its owning NI, zeroing every
// field except the pool linkage. A no-op on unpooled messages. Callers must
// not touch the message afterwards.
func (m *RecvMsg) Free() {
	o := m.owner
	if o == nil {
		return
	}
	*m = RecvMsg{owner: o, fnext: o.msgFree}
	o.msgFree = m
}

// allocMsg takes a receive descriptor from the NI's free list, or makes one.
func (n *NIC) allocMsg() *RecvMsg {
	if m := n.msgFree; m != nil {
		n.msgFree = m.fnext
		m.fnext = nil
		return m
	}
	return &RecvMsg{owner: n}
}

// EndpointImage is the NI-visible representation of an endpoint: its message
// queues and protection state. The same object serves as backing store in
// host memory when the endpoint is not resident — residency transitions move
// (virtually) the image across the SBUS but, in the simulation, only charge
// the transfer time.
type EndpointImage struct {
	ID    int
	Node  netsim.NodeID
	Key   uint64
	State EPState
	Frame int // frame index when resident, else -1

	// SendQ holds outgoing requests; RepSendQ holds outgoing replies.
	// Keeping them separate preserves Active Messages' deadlock-freedom
	// argument: reply progress never waits behind a stalled request. Each
	// holds at most SendQDepth descriptors: a host post waits while its
	// queue is full, and the firmware's requeue refuses at the depth.
	SendQ    container.Deque[*SendDesc]
	RepSendQ container.Deque[*SendDesc]
	// RecvQ holds incoming requests; RepQ holds replies and returned
	// messages. The request queue depth is what user-level credits guard.
	// Each holds at most recvDepth messages: the firmware NACKs a data
	// packet for a full queue, and spills a return to retOverflow.
	RecvQ container.Deque[*RecvMsg]
	RepQ  container.Deque[*RecvMsg]
	// recvDepth bounds RecvQ and RepQ.
	recvDepth int

	// EventArmed marks that a host thread wants a wakeup on arrival
	// (endpoint event mask, §3.3). The NI calls DriverPort.Notify.
	EventArmed bool

	// Weight scales the endpoint's WRR loiter budget: the firmware lets the
	// endpoint emit up to Weight×LoiterMsgs messages (and loiter up to
	// Weight×LoiterTime) before advancing, so an endpoint with weight w
	// receives roughly w shares of NI send service under saturation. Zero is
	// treated as 1, so existing callers see the paper's unweighted discipline.
	Weight int

	// Serviced and ServicedBytes meter WRR send service: messages and payload
	// bytes the firmware actually transmitted from this endpoint. The tenancy
	// layer aggregates them per tenant to verify metered shares.
	Serviced      int64
	ServicedBytes int64

	// OnDeliver, when set, runs in NI context after a message is deposited
	// (wire arrivals and return-to-sender alike): the deposit doorbell. The
	// core library rings a host thread parked in Endpoint.IdlePoll with it;
	// it must not block.
	OnDeliver func(*RecvMsg)
	// OnSendSpace, when set, runs in NI context when the firmware takes a
	// send queue from full to not full: the send-space doorbell, which ends
	// a backed-off wait for queue space parked in Endpoint.PollBackoff. It
	// must not block.
	OnSendSpace func()

	// LastActive is the last time the NI serviced this endpoint (send or
	// deliver); the LRU replacement ablation uses it.
	LastActive sim.Time
	// LoadedAt is when the endpoint last became resident (FIFO ablation).
	LoadedAt sim.Time

	inflight int // packets in the network from this endpoint
	// unloadWait holds the pending driver command while quiescing.
	unloadWait *DriverCmd

	// retOverflow holds returned messages that arrived while RepQ was full.
	// A return-to-sender deposit goes from NI to host memory and its message
	// already occupied bounded NI state when it was posted, so the wire-side
	// reply-queue depth must not bound it: dropping a return would silently
	// lose the §3.2 undeliverable event and leak the request's credit. The
	// list empties whenever the host polls (it is part of the image, so it
	// travels across residency transitions and migrations).
	retOverflow container.Deque[*RecvMsg]

	// seen tracks delivered MsgIDs per source endpoint for end-to-end
	// duplicate suppression. It is part of the endpoint image (it moves
	// with the endpoint across residency transitions).
	// The windows are held by value, so a new source endpoint costs a map
	// slot and no allocation of its own.
	seen map[int]msgWindow
}

// msgWindow is a compact delivered-set: ids <= contig are all delivered;
// sparse holds delivered ids above the contiguous point (gaps arise while
// earlier messages are being retried or after they were returned).
type msgWindow struct {
	contig uint64
	sparse map[uint64]struct{}
}

// SeenMsg reports whether id from srcEP was already delivered.
func (ep *EndpointImage) SeenMsg(srcEP int, id uint64) bool {
	w, ok := ep.seen[srcEP]
	return ok && w.has(id)
}

// MarkMsg records a delivered id from srcEP.
func (ep *EndpointImage) MarkMsg(srcEP int, id uint64) {
	if ep.seen == nil {
		ep.seen = make(map[int]msgWindow)
	}
	w := ep.seen[srcEP]
	w.mark(id)
	ep.seen[srcEP] = w
}

func (w *msgWindow) has(id uint64) bool {
	if id <= w.contig {
		return true
	}
	_, dup := w.sparse[id]
	return dup
}

func (w *msgWindow) mark(id uint64) {
	if id <= w.contig {
		return
	}
	if id == w.contig+1 && len(w.sparse) == 0 {
		// In order with no gap open: what the general path below does with
		// an insert, a lookup and a delete.
		w.contig++
		return
	}
	if w.sparse == nil {
		w.sparse = make(map[uint64]struct{})
	}
	w.sparse[id] = struct{}{}
	for {
		if _, ok := w.sparse[w.contig+1]; !ok {
			break
		}
		w.contig++
		delete(w.sparse, w.contig)
	}
	// A message returned to its sender leaves a permanent gap; bound the
	// sparse set by force-advancing past the oldest gap. Returned ids are
	// never reused, so skipping them cannot mask a duplicate.
	if len(w.sparse) > 4096 {
		min := uint64(1<<63 - 1)
		for k := range w.sparse {
			if k < min {
				min = k
			}
		}
		w.contig = min
		delete(w.sparse, min)
		for {
			if _, ok := w.sparse[w.contig+1]; !ok {
				break
			}
			w.contig++
			delete(w.sparse, w.contig)
		}
	}
}

// NewEndpointImage allocates an endpoint image with SendQDepth-deep send
// queues and recvDepth-deep receive queues. Each queue is reserved at its
// depth, exactly as the LANai endpoint frames held fixed arrays of message
// descriptors, so a queue never allocates once made and never holds more
// than its depth.
func NewEndpointImage(id int, node netsim.NodeID, recvDepth int) *EndpointImage {
	ep := &EndpointImage{ID: id, Node: node, Frame: -1, recvDepth: recvDepth}
	ep.SendQ.Reserve(SendQDepth)
	ep.RepSendQ.Reserve(SendQDepth)
	ep.RecvQ.Reserve(recvDepth)
	ep.RepQ.Reserve(recvDepth)
	return ep
}

// Resident reports whether the NI can service the endpoint.
func (ep *EndpointImage) Resident() bool { return ep.State == EPResident }

// Inflight reports packets from this endpoint currently unacknowledged in
// the network (the quantity the quiesce protocol drains to zero).
func (ep *EndpointImage) Inflight() int { return ep.inflight }

// PendingSends reports the number of queued send descriptors.
func (ep *EndpointImage) PendingSends() int { return ep.SendQ.Len() + ep.RepSendQ.Len() }

// sendQueueFor returns the queue a descriptor belongs to.
func (ep *EndpointImage) sendQueueFor(d *SendDesc) *container.Deque[*SendDesc] {
	if d.IsReply {
		return &ep.RepSendQ
	}
	return &ep.SendQ
}

// recvQueueFor returns the queue an incoming message of the given kind is
// deposited in.
func (ep *EndpointImage) recvQueueFor(isReply bool) *container.Deque[*RecvMsg] {
	if isReply {
		return &ep.RepQ
	}
	return &ep.RecvQ
}

// PendingRecvs reports queued incoming requests plus replies.
func (ep *EndpointImage) PendingRecvs() int {
	return ep.RecvQ.Len() + ep.RepQ.Len() + ep.retOverflow.Len()
}

// NextVisible reports the earliest time at which PopRecv would return a
// message: the smallest Visible among the queue heads it examines. ok is
// false when every queue is empty.
func (ep *EndpointImage) NextVisible() (t sim.Time, ok bool) {
	if m, has := ep.RepQ.Peek(); has {
		t, ok = m.Visible, true
	}
	if m, has := ep.retOverflow.Peek(); has && (!ok || m.Visible < t) {
		t, ok = m.Visible, true
	}
	if m, has := ep.RecvQ.Peek(); has && (!ok || m.Visible < t) {
		t, ok = m.Visible, true
	}
	return t, ok
}

// PopRecv dequeues the next received message visible at time now,
// preferring replies (they carry completion credits and handlers expect
// them promptly). Of the reply queue and the returns spilled past it, the
// head that became visible first goes first, as in NextVisible.
func (ep *EndpointImage) PopRecv(now sim.Time) (*RecvMsg, bool) {
	rep := &ep.RepQ
	if m, ok := ep.retOverflow.Peek(); ok {
		if r, has := rep.Peek(); !has || m.Visible < r.Visible {
			rep = &ep.retOverflow
		}
	}
	if m, ok := rep.Peek(); ok && m.Visible <= now {
		rep.Pop()
		return m, true
	}
	if m, ok := ep.RecvQ.Peek(); ok && m.Visible <= now {
		ep.RecvQ.Pop()
		return m, true
	}
	return nil, false
}
