// Package core implements the paper's primary contribution: the virtual
// network communication programming interface — Active Messages II with
// endpoints (§3).
//
// An application attaches a Bundle to its node, creates Endpoints in it,
// and establishes addressability by configuring each endpoint's translation
// table with (endpoint name, protection key) pairs. A collection of
// endpoints that refer to one another forms a virtual network; there is no
// group membership interface. Communication is split-phase request/reply:
// a request names a translation-table index and a handler at the
// destination; the handler may reply through its token.
//
// The three §3 enhancements over first-generation Active Messages are all
// here: opaque endpoint names with per-message protection keys (§3.1),
// exactly-once delivery with undeliverable messages returned to the sender
// (§3.2), and event masks that integrate arrivals with blocked threads
// (§3.3). Credit-based flow control allows 32 outstanding requests per
// translation — the depth of the destination's request receive queue.
package core

import (
	"errors"
	"fmt"

	"virtnet/internal/container"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// NumHandlers is the size of each endpoint's handler table.
const NumHandlers = 64

// EndpointName is an opaque global endpoint name. Applications obtain names
// by any rendezvous mechanism and install them in translation tables; they
// must not interpret the contents.
type EndpointName struct {
	node netsim.NodeID
	ep   int
}

func (n EndpointName) String() string { return fmt.Sprintf("ep(%d:%d)", n.node, n.ep) }

// Field widths of the Raw encoding: the low 40 bits carry the endpoint id
// and the next 23 bits the birth node, filling a non-negative int64.
const (
	rawEpBits   = 40
	rawNodeBits = 23
)

// Raw serializes the name for transport through a rendezvous mechanism
// (e.g. inside a message's argument words). The encoding is opaque to
// applications; NameFromRaw reverses it. Names whose components do not fit
// the encoding's fields cannot be serialized without colliding with another
// name, so Raw panics rather than alias silently.
func (n EndpointName) Raw() int64 {
	if n.ep < 0 || int64(n.ep) >= 1<<rawEpBits {
		panic(fmt.Sprintf("core: endpoint id %d does not fit Raw's %d-bit field", n.ep, rawEpBits))
	}
	if n.node < 0 || int64(n.node) >= 1<<rawNodeBits {
		panic(fmt.Sprintf("core: node id %d does not fit Raw's %d-bit field", n.node, rawNodeBits))
	}
	return int64(n.node)<<rawEpBits | int64(n.ep)
}

// NameFromRaw reconstructs a name serialized by Raw.
func NameFromRaw(raw int64) EndpointName {
	return EndpointName{node: netsim.NodeID(raw >> rawEpBits), ep: int(raw & (1<<rawEpBits - 1))}
}

// Key is a protection key. A message is delivered only if its key matches
// the destination endpoint's key.
type Key = uint64

// Handler is an Active Message handler. Request handlers may send at most
// one reply through tok; reply handlers must not reply. Handlers run in the
// context of the polling (or waiting) thread.
type Handler func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte)

// ReturnHandler receives undeliverable messages returned to this endpoint
// (§3.2). The application decides whether to re-issue or abort; dstIdx is
// the translation-table index of the intended destination (-1 if it is no
// longer mapped), which is what a re-issue needs.
type ReturnHandler func(p *sim.Proc, reason nic.NackReason, dstIdx, handler int, args [4]uint64, payload []byte)

// Errors returned by the API.
var (
	ErrBadIndex    = errors.New("core: translation table index invalid or unset")
	ErrPayloadSize = errors.New("core: payload exceeds MTU (fragment at a higher layer)")
	ErrClosed      = errors.New("core: bundle closed")
	ErrNoHandler   = errors.New("core: handler index out of range")
	// ErrMoved reports that the endpoint was frozen for live migration: its
	// state now lives on another node and this handle is dead. The caller
	// obtains the reincarnated endpoint from the migration manager.
	ErrMoved = errors.New("core: endpoint migrated away")
)

// Resolver maps an endpoint id to the node currently hosting it. The
// cluster-wide name service (internal/migrate) implements it; a bundle with
// no resolver falls back to the location bound into each name, which is
// correct exactly as long as endpoints never move.
type Resolver interface {
	Resolve(ep int) (node netsim.NodeID, ok bool)
}

// Mode marks an endpoint shared (operations take a lock) or exclusive.
type Mode int

const (
	// exclusive endpoints skip synchronization overheads (§3.3); it is the
	// zero Mode, so only tests name it.
	exclusive Mode = iota
	// Shared endpoints charge a lock cost per operation.
	Shared
)

// sharedLockCost is the synchronization overhead per operation on a shared
// endpoint.
const sharedLockCost = 400 * sim.Nanosecond

// stallPollCap caps the backed-off probe interval of a thread stalled on
// credits or a full send queue, so long waits stay cheap.
const stallPollCap = 100 * sim.Microsecond

// Bundle is a per-process collection of endpoints with a shared event wait
// (the AM-II bundle). Threads sleep on the bundle and wake when any armed
// endpoint receives a message.
type Bundle struct {
	Node *hostos.Node

	eps      []*Endpoint
	cond     *sim.Cond
	closed   bool
	resolver Resolver
	// cfg caches the node's NI configuration (immutable after NI creation)
	// so per-message cost lookups don't copy the whole struct each time.
	cfg nic.Config
	// tracer comes from the node's observability layer when one was
	// enabled before this bundle attached; it stays nil otherwise, which
	// keeps every per-message hook a plain nil check.
	tracer *obs.Tracer
	// C counts credit and send-queue stalls; the registry lists it only
	// when the node's observability layer is on.
	C obs.Counters
}

// Attach opens a bundle on node.
func Attach(node *hostos.Node) *Bundle {
	b := &Bundle{Node: node, cond: new(sim.Cond), cfg: node.NIC.Config()}
	if o := node.Obs; o != nil {
		b.tracer = o.T
		o.R.AddCounters(fmt.Sprintf("core.n%d", int(node.ID)), &b.C)
	}
	return b
}

// Tracer exposes the flight recorder this bundle's node is wired to (nil
// when tracing is off). Higher layers use it to open request-level spans
// that share a trace id with the message flights beneath them.
func (b *Bundle) Tracer() *obs.Tracer { return b.tracer }

// SetResolver installs the cluster name service used to locate endpoints
// that may have migrated. Affects subsequent Map calls and message posting;
// existing cached locations refresh lazily when a send bounces off a
// forwarding entry.
func (b *Bundle) SetResolver(r Resolver) { b.resolver = r }

// translation is one slot of an endpoint's translation table. Beyond the
// paper's (name, key) pair it caches the name's current location binding:
// node is where messages are physically routed. It refreshes when a send
// bounces off a migrated endpoint's forwarding entry (NackMoved). credits
// never exceeds the receive queue depth, so it shares a word with valid: a
// slot is 40 B.
type translation struct {
	valid   bool
	credits int32
	name    EndpointName
	key     Key
	node    netsim.NodeID
}

// table is an endpoint's translation table: size slots of namespace, with
// storage only for the slots Map has written. Slot 0 is held inline and
// slots 1, 2, … in chunks of 1, 2, 4, … that never move, so a *translation
// taken before a yield stays valid after it, even if Map has made a higher
// slot since. An endpoint that maps only slot 0 stores one translation
// whatever its size.
type table struct {
	size int
	t0   translation
	rest container.Chunks[translation]
}

// get returns slot idx if it is mapped, else nil (idx outside the table
// included). It makes nothing.
func (t *table) get(idx int) *translation {
	var s *translation
	switch {
	case idx < 0 || idx >= t.size:
		return nil
	case idx == 0:
		s = &t.t0
	default:
		s = t.rest.Get(idx)
	}
	if s == nil || !s.valid {
		return nil
	}
	return s
}

// at returns slot idx, 0 ≤ idx < size, making its storage if needed.
func (t *table) at(idx int) *translation {
	if idx == 0 {
		return &t.t0
	}
	return t.rest.At(idx, t.size)
}

// Stats counts per-endpoint API activity.
type Stats struct {
	Delivered int64 // handlers invoked for incoming messages
	// Redirects counts messages bounced off a migrated endpoint's forwarding
	// entry and transparently re-issued toward its new location.
	Redirects int64
	// Refreshes counts translation-table location bindings updated from the
	// name service after a bounce.
	Refreshes int64
}

// Endpoint is a virtualized connection to the network (§3). It holds
// message queues and state beneath the interface, owns a translation table
// defining its logical communication namespace, and a handler table.
type Endpoint struct {
	b    *Bundle
	seg  *hostos.Segment
	mode Mode
	// name is the endpoint's birth name, fixed at creation. The node baked
	// into it is only the default location hint: after a migration the name
	// stays the same while the location binding (translation.node, refreshed
	// through the name service) diverges from it — names are opaque (§3.1).
	name EndpointName
	// moved marks a handle whose endpoint state was extracted for migration;
	// every operation on it fails with ErrMoved.
	moved bool
	// dispatching counts handler invocations in progress (possibly nested);
	// Freeze waits for it to reach zero so a request popped before the
	// freeze still gets its reply out before the state is extracted.
	dispatching int
	// tok0 is the scratch token the outermost dispatch hands to handlers;
	// tokens are only valid during the handler, so one per nesting level
	// suffices and only deeper levels allocate.
	tok0 Token
	// curTrace is the trace id of the flight whose handler is currently
	// running; posts issued inside the handler (replies, forwarded
	// requests) join that trace as child spans.
	curTrace uint64
	// idle is the proc parked in IdlePoll or PollBackoff, if any; shadowT
	// fires in a parked PollBackoff's stead, and stirs counts what may have
	// changed a backed-off waiter's exit test (idle.go).
	idle    idler
	shadowT *sim.Timer
	stirs   uint64

	handlers [NumHandlers]Handler
	onReturn ReturnHandler
	// waitAbort, when set, is consulted on every iteration of the blocking
	// flow-control waits (credit window in Request, send-queue space in the
	// descriptor post). A non-nil result abandons the wait and surfaces as
	// the operation's error — the hook that lets a message-passing layer
	// abort ranks blocked against a crashed peer instead of spinning forever.
	waitAbort func() error
	// trans is the translation table. An endpoint made by NewEndpoint owns
	// it (&own); one made by Install shares its source's, so a credit handed
	// back or a slot mapped through the frozen handle reaches the migrated
	// state, as it does the reverse index and the sequences.
	trans *table
	own   table
	// msgSeq assigns the end-to-end message id per destination endpoint id
	// (exactly-once dedup across channel rebinds). Keyed by the globally
	// unique endpoint id, not the name, so the sequence survives the
	// destination moving between nodes.
	msgSeq map[int]uint64
	// reverse maps a remote endpoint id to the local translation index, for
	// credit restoration when its replies and returns arrive — from whichever
	// node the endpoint currently occupies.
	reverse map[int]int

	Stats Stats
}

// NewEndpoint creates an endpoint with the given protection key and a
// translation table of tableSize slots. tableSize is a capacity — Map
// accepts indices [0, tableSize) — and not storage: a slot takes memory
// once it is mapped, and the endpoint's state grows with the highest slot
// in use.
func (b *Bundle) NewEndpoint(key Key, tableSize int) (*Endpoint, error) {
	if b.closed {
		return nil, ErrClosed
	}
	seg := b.Node.Driver.CreateEndpoint(key)
	ep := &Endpoint{
		b:       b,
		seg:     seg,
		name:    EndpointName{node: b.Node.ID, ep: seg.EP.ID},
		own:     table{size: tableSize},
		reverse: make(map[int]int),
		msgSeq:  make(map[int]uint64),
	}
	ep.trans = &ep.own
	// Communication events funnel to the bundle condition so one thread
	// can wait on many endpoints.
	seg.OnEvent = func() { b.cond.Broadcast() }
	ep.hookIdle()
	b.eps = append(b.eps, ep)
	return ep, nil
}

// Name returns the endpoint's opaque global name. The name is assigned at
// creation and never changes — in particular it survives live migration, so
// rendezvous state held by peers stays valid across moves.
func (ep *Endpoint) Name() EndpointName { return ep.name }

// Moved reports whether this handle's endpoint was migrated away (all
// operations on it return ErrMoved).
func (ep *Endpoint) Moved() bool { return ep.moved }

// Trace returns the ambient trace id: the trace of the flight whose handler
// is currently dispatching on this endpoint, or one installed explicitly
// with SetTrace. 0 means untraced.
func (ep *Endpoint) Trace() uint64 { return ep.curTrace }

// SetTrace installs an ambient trace id on the endpoint and returns the
// previous one, so request-level layers can bracket a send with
// prev := ep.SetTrace(id); ...; ep.SetTrace(prev) and have every message
// posted in between join the request's trace as a child span.
func (ep *Endpoint) SetTrace(id uint64) uint64 {
	prev := ep.curTrace
	ep.curTrace = id
	return prev
}

// Segment exposes the OS segment backing this endpoint (for instrumentation).
func (ep *Endpoint) Segment() *hostos.Segment { return ep.seg }

// Bundle returns the bundle this endpoint belongs to.
func (ep *Endpoint) Bundle() *Bundle { return ep.b }

// SetMode marks the endpoint shared or exclusive.
func (ep *Endpoint) SetMode(m Mode) {
	ep.mode = m
	ep.rephase()
}

// SetHandler installs h at handler table index i.
func (ep *Endpoint) SetHandler(i int, h Handler) error {
	if i < 0 || i >= NumHandlers {
		return ErrNoHandler
	}
	ep.handlers[i] = h
	return nil
}

// SetReturnHandler installs the undeliverable-message handler.
func (ep *Endpoint) SetReturnHandler(h ReturnHandler) { ep.onReturn = h }

// SetWaitAbort installs a predicate polled inside the blocking flow-control
// waits. When it returns a non-nil error the blocked operation gives up and
// returns that error instead of waiting for window space that may never
// open (e.g. the peer crashed and its credits are gone for good). Pass nil
// to clear.
func (ep *Endpoint) SetWaitAbort(f func() error) { ep.waitAbort = f }

// Map installs (name, key) at translation table index idx, establishing
// addressability to that endpoint with an initial credit window equal to
// the destination's request receive queue depth.
func (ep *Endpoint) Map(idx int, name EndpointName, key Key) error {
	if idx < 0 || idx >= ep.trans.size {
		return ErrBadIndex
	}
	// The initial location binding comes from the name service when one is
	// attached (the endpoint may already have migrated away from its birth
	// node), else from the location hint baked into the name.
	node := name.node
	if r := ep.b.resolver; r != nil {
		if n2, ok := r.Resolve(name.ep); ok {
			node = n2
		}
	}
	*ep.trans.at(idx) = translation{
		valid: true, name: name, key: key,
		credits: int32(ep.b.cfg.RecvQDepth),
		node:    node,
	}
	ep.reverse[name.ep] = idx
	ep.stirs++
	return nil
}

// Credits reports the available request credits for translation idx (0 if
// the slot is unmapped).
func (ep *Endpoint) Credits(idx int) int {
	if t := ep.trans.get(idx); t != nil {
		return int(t.credits)
	}
	return 0
}

// SlotOf returns the translation index at which the endpoint named dst was
// last mapped, and whether it is mapped at all. It reads the reverse index,
// so it costs the same whatever the table's size.
func (ep *Endpoint) SlotOf(dst EndpointName) (int, bool) {
	idx, ok := ep.reverse[dst.ep]
	return idx, ok
}

// Key returns the endpoint's protection key.
func (ep *Endpoint) Key() Key { return ep.seg.EP.Key }

// TranslationValid reports whether translation slot idx is mapped.
func (ep *Endpoint) TranslationValid(idx int) bool { return ep.trans.get(idx) != nil }

// SetEventMask arms (or disarms) arrival events for this endpoint (§3.3).
func (ep *Endpoint) SetEventMask(armed bool) { ep.seg.EP.EventArmed = armed }

// SetWeight sets the endpoint's NI service share weight: the weighted
// round-robin discipline lets the endpoint loiter w× the base budget before
// advancing, so weights meter relative send bandwidth between endpoints
// competing for the same NI (the tenancy layer maps tenant shares here).
// Weights below 1 are clamped to 1.
func (ep *Endpoint) SetWeight(w int) {
	if w < 1 {
		w = 1
	}
	ep.seg.EP.Weight = w
}

// Serviced reports the messages and payload bytes the NI has transmitted
// from this endpoint — the metered quantity behind share weights.
func (ep *Endpoint) Serviced() (msgs, bytes int64) {
	return ep.seg.EP.Serviced, ep.seg.EP.ServicedBytes
}

// lock charges synchronization cost on shared endpoints.
func (ep *Endpoint) lock(p *sim.Proc) {
	if ep.mode == Shared {
		p.Sleep(sharedLockCost)
	}
}

// touchForWrite performs the endpoint write-fault protocol: if the endpoint
// is not resident the segment driver is invoked, which (in the paper's
// design) marks it writable and schedules an asynchronous remap.
func (ep *Endpoint) touchForWrite(p *sim.Proc) {
	if !ep.seg.Resident() {
		ep.b.Node.Driver.WriteFault(p, ep.seg)
	}
}

// Request sends a short request to translation idx, invoking handler h
// remotely. It blocks (polling) while the translation is out of credits or
// the send queue is full.
func (ep *Endpoint) Request(p *sim.Proc, idx, h int, args [4]uint64) error {
	return ep.request(p, idx, h, args, nil)
}

// RequestBulk sends a request carrying payload (<= MTU). Bulk data is
// staged through NI memory by DMA on both sides.
func (ep *Endpoint) RequestBulk(p *sim.Proc, idx, h int, payload []byte, args [4]uint64) error {
	return ep.request(p, idx, h, args, payload)
}

func (ep *Endpoint) request(p *sim.Proc, idx, h int, args [4]uint64, payload []byte) error {
	if ep.b.closed {
		return ErrClosed
	}
	if ep.moved {
		return ErrMoved
	}
	t := ep.trans.get(idx)
	if t == nil {
		return ErrBadIndex
	}
	if len(payload) > nic.MTU {
		return ErrPayloadSize
	}
	ep.lock(p)
	// Credit-based flow control: block while the window is closed,
	// polling so replies (which restore credits) are consumed. The probe
	// interval backs off while nothing arrives so long waits stay cheap.
	if t.credits == 0 {
		ep.b.C.Inc("credit_stall")
	}
	wait := Backoff{Base: nic.PollHost, Cap: stallPollCap}
	for t.credits == 0 {
		if ep.moved {
			// Frozen for migration while waiting; outstanding credits are
			// settled by the state transfer.
			return ErrMoved
		}
		if ep.waitAbort != nil {
			if err := ep.waitAbort(); err != nil {
				return err
			}
		}
		ep.PollBackoff(p, &wait)
	}
	t.credits--
	ep.msgSeq[t.name.ep]++
	err := ep.post(p, t.node, t.name.ep, t.key, ep.msgSeq[t.name.ep], h, args, payload, false)
	if err != nil {
		// post yields (overhead charge, write fault, full send queue) and can
		// fail mid-flight — e.g. the endpoint is frozen for migration while
		// blocked. Nothing entered the network, so hand the credit back;
		// the message id is not reused (gaps are fine for the receiver's
		// duplicate filter, which tolerates them for returns already).
		t.credits++
		ep.stirs++
	}
	return err
}

// locate returns the node currently hosting the named endpoint: the name
// service's answer when one is attached, else the location hint in the name.
func (ep *Endpoint) locate(dst EndpointName) netsim.NodeID {
	if r := ep.b.resolver; r != nil {
		if node, ok := r.Resolve(dst.ep); ok {
			return node
		}
	}
	return dst.node
}

// enqueue assigns the next end-to-end message id for dst, locates it, and
// posts the descriptor (the reply path, which addresses endpoints outside
// the translation table).
func (ep *Endpoint) enqueue(p *sim.Proc, dst EndpointName, key Key, h int, args [4]uint64, payload []byte) error {
	ep.msgSeq[dst.ep]++
	return ep.post(p, ep.locate(dst), dst.ep, key, ep.msgSeq[dst.ep], h, args, payload, true)
}

// post charges Os, performs the write-fault protocol, and posts a descriptor
// addressed to endpoint dstEP on node dstNode, waiting for send-queue space
// if necessary. msgID is the end-to-end message id — callers re-issuing a
// returned message pass the original id so duplicate suppression at the
// destination keeps delivery exactly-once.
func (ep *Endpoint) post(p *sim.Proc, dstNode netsim.NodeID, dstEP int, key Key, msgID uint64, h int, args [4]uint64, payload []byte, isReply bool) error {
	if ep.b.closed {
		return ErrClosed
	}
	// Replies are allowed through a frozen endpoint: they complete requests
	// popped before the freeze, and the quiesce drain flushes them before
	// the image is extracted. New requests are refused.
	if ep.moved && !isReply {
		return ErrMoved
	}
	// Open a trace span for this message when the recorder samples it (or
	// unconditionally when it continues the trace of the handler we are
	// inside — sampled traces are never truncated mid-exchange).
	var fl *obs.Flight
	if tr := ep.b.tracer; tr != nil {
		k := obs.KindShort
		switch {
		case isReply:
			k = obs.KindReply
		case len(payload) > 0:
			k = obs.KindBulk
		}
		if ep.curTrace != 0 {
			fl = tr.Child(ep.curTrace, int(ep.b.Node.ID), int(dstNode), k, p.Now())
		} else {
			fl = tr.Sample(int(ep.b.Node.ID), int(dstNode), k, p.Now())
		}
	}
	cfg := &ep.b.cfg
	os := cfg.OsShort
	if isReply {
		os = nic.OsReply
	}
	if len(payload) > 0 {
		os = cfg.OsBulk
	}
	ep.b.Node.Compute(p, sim.Duration(os))
	ep.touchForWrite(p)
	sq := &ep.seg.EP.SendQ
	if isReply {
		sq = &ep.seg.EP.RepSendQ
	}
	if sq.Len() >= nic.SendQDepth {
		ep.b.C.Inc("sendq_stall")
	}
	wait := Backoff{Base: nic.PollHost, Cap: stallPollCap}
	for sq.Len() >= nic.SendQDepth {
		if ep.moved && !isReply {
			fl.Drop(obs.StageHostPost, "abort:moved", p.Now())
			return ErrMoved
		}
		if ep.waitAbort != nil && !isReply {
			if err := ep.waitAbort(); err != nil {
				fl.Drop(obs.StageHostPost, "abort:"+err.Error(), p.Now())
				return err
			}
		}
		// The NI drains the queue; polling meanwhile keeps replies moving.
		ep.PollBackoff(p, &wait)
	}
	// The NI recycles the descriptor when the message is acknowledged or
	// returned; nothing here may keep d past the Push.
	d := ep.b.Node.NIC.AllocDesc()
	d.DstNI = dstNode
	d.DstEP = dstEP
	d.MsgID = msgID
	d.Key = key
	d.SrcEP = ep.seg.EP.ID
	d.Handler = h
	d.IsReply = isReply
	d.Args = args
	d.Payload = payload
	d.ReplyKey = ep.seg.EP.Key
	d.Flight = fl
	sq.Push(d)
	fl.Mark(obs.StageHostPost, p.Now())
	ep.b.Node.NIC.PostSend()
	return nil
}

// Token identifies the request being handled so the handler can reply.
type Token struct {
	ep      *Endpoint
	src     EndpointName
	key     Key
	replied bool
}

// Source returns the name of the requesting endpoint.
func (t *Token) Source() EndpointName { return t.src }

// Reply sends a short reply to the request identified by the token.
func (t *Token) Reply(p *sim.Proc, h int, args [4]uint64) error {
	return t.reply(p, h, args, nil)
}

// ReplyBulk sends a reply carrying payload (<= MTU).
func (t *Token) ReplyBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error {
	return t.reply(p, h, args, payload)
}

func (t *Token) reply(p *sim.Proc, h int, args [4]uint64, payload []byte) error {
	if t.replied {
		return errors.New("core: handler replied twice")
	}
	if len(payload) > nic.MTU {
		return ErrPayloadSize
	}
	t.replied = true
	return t.ep.enqueue(p, t.src, t.key, h, args, payload)
}

// pollOnce drains pending messages from the endpoint, charging the poll
// cost (which depends on where the endpoint resides: polling resident
// endpoints reads uncacheable NI memory; non-resident ones are cacheable
// host memory — the ST-96 vs ST-8 effect of §6.4) and the per-message
// receive overhead. It returns the number of messages processed.
func (ep *Endpoint) pollOnce(p *sim.Proc) int {
	if ep.moved {
		// The image now belongs to the endpoint's new node; polling through
		// this stale handle must not steal its messages.
		return 0
	}
	ep.lock(p)
	ep.pollCharge(p)
	return ep.drain(p)
}

// pollCharge charges the host CPU cost of reading the endpoint's queue
// heads, which depends on where the endpoint resides right now.
func (ep *Endpoint) pollCharge(p *sim.Proc) {
	if ep.seg.Resident() {
		p.Sleep(nic.PollResident)
	} else {
		p.Sleep(nic.PollHost)
	}
}

// drain pops and dispatches every message visible now, returning how many.
func (ep *Endpoint) drain(p *sim.Proc) int {
	n := 0
	for !ep.moved {
		// Stop popping the moment a freeze lands mid-loop: unconsumed
		// messages stay in the image and travel with the endpoint.
		m, ok := ep.seg.EP.PopRecv(p.Now())
		if !ok {
			break
		}
		n++
		ep.dispatching++
		ep.dispatch(p, m)
		ep.dispatching--
		ep.stirs++
		// The descriptor is dead: handlers receive the args and payload,
		// never the RecvMsg itself.
		m.Free()
		if ep.dispatching == 0 && ep.moved {
			ep.seg.Cond.Broadcast() // wake a Freeze waiting on us
		}
	}
	return n
}

// dispatch charges Or and runs the appropriate handler for one message.
func (ep *Endpoint) dispatch(p *sim.Proc, m *nic.RecvMsg) {
	// Close the deposit interval (SBUS visibility latency) and the poll
	// interval (visible → popped). Returned messages carry no flight; their
	// span was already finalized as dropped by the transport.
	fl := m.Flight
	fl.Mark(obs.StageDeposit, m.Visible)
	fl.Mark(obs.StageHostPoll, p.Now())
	cfg := &ep.b.cfg
	or := cfg.OrShort
	if m.IsReply && !m.IsReturn {
		or = nic.OrReply
	}
	if len(m.Payload) > 0 {
		or = cfg.OrBulk
	}
	ep.b.Node.Compute(p, sim.Duration(or))

	src := EndpointName{node: m.SrcNI, ep: m.SrcEP}
	if m.IsReturn {
		if m.Reason == nic.NackMoved && ep.redirect(p, m) {
			// Bounced off a forwarding entry and transparently re-issued
			// toward the endpoint's new location; not a user-visible return.
			return
		}
		// Undeliverable message returned to sender: restore the credit it
		// consumed (requests only) and run the return handler.
		dstIdx := -1
		if idx, ok := ep.reverse[src.ep]; ok {
			dstIdx = idx
			if !m.IsReply {
				ep.trans.at(idx).credits++
			}
		}
		if ep.onReturn != nil {
			ep.onReturn(p, m.Reason, dstIdx, m.Handler, m.Args, m.Payload)
		}
		return
	}
	if m.IsReply {
		// A reply closes the request's credit.
		if idx, ok := ep.reverse[src.ep]; ok {
			ep.trans.at(idx).credits++
		}
	}
	ep.Stats.Delivered++
	// The handler stage covers Or and dispatch bookkeeping; the flight ends
	// the instant the handler body would start, so an application timestamp
	// taken as the handler's first action equals the flight's recorded end.
	fl.Mark(obs.StageHandler, p.Now())
	fl.Finish(p.Now())
	h := ep.handlers[m.Handler]
	if h == nil {
		return
	}
	// Tokens are valid only until the handler returns (the AM-II contract),
	// so the outermost dispatch reuses a per-endpoint scratch token. Nested
	// dispatches (a handler polling while it waits for send-queue space)
	// allocate, since the outer handler's token is still live.
	var tok *Token
	if ep.dispatching == 1 {
		tok = &ep.tok0
		*tok = Token{ep: ep, src: src, key: m.ReplyKey}
	} else {
		tok = &Token{ep: ep, src: src, key: m.ReplyKey}
	}
	if m.IsReply {
		tok.replied = true // replies must not be replied to
	}
	if fl != nil {
		// Posts inside the handler (replies, forwards) join this trace.
		prev := ep.curTrace
		ep.curTrace = fl.TraceID
		h(p, tok, m.Args, m.Payload)
		ep.curTrace = prev
		return
	}
	h(p, tok, m.Args, m.Payload)
}

// redirect handles a message bounced by a migrated endpoint's forwarding
// entry (NackMoved): it asks the name service for the endpoint's current
// node, refreshes the cached location binding in the translation table, and
// re-issues the message verbatim — same message id, same key — so the
// destination's duplicate suppression keeps end-to-end delivery exactly-once
// even if an earlier attempt actually landed. It reports whether the message
// was re-issued; on failure the caller falls through to the application's
// return handler (§3.2).
func (ep *Endpoint) redirect(p *sim.Proc, m *nic.RecvMsg) bool {
	r := ep.b.resolver
	if r == nil {
		return false
	}
	node, ok := r.Resolve(m.SrcEP)
	if !ok {
		return false
	}
	if idx, mapped := ep.reverse[m.SrcEP]; mapped {
		t := ep.trans.at(idx)
		if t.node != node {
			ep.Stats.Refreshes++
		}
		t.node = node
	}
	if node == m.SrcNI {
		// The name service still names the node that bounced the message —
		// it has no newer location, so re-issuing would bounce forever.
		return false
	}
	ep.Stats.Redirects++
	return ep.post(p, node, m.SrcEP, m.Key, m.MsgID, m.Handler, m.Args, m.Payload, m.IsReply) == nil
}

// Poll processes pending messages on the endpoint once.
func (ep *Endpoint) Poll(p *sim.Proc) int { return ep.pollOnce(p) }

// MaxPollCost bounds the virtual time a Poll that finds nothing can take,
// wherever the endpoint resides and whichever mode it is in.
func (ep *Endpoint) MaxPollCost() sim.Duration {
	return sharedLockCost + max(nic.PollResident, nic.PollHost)
}

// Poll processes pending messages on every endpoint in the bundle.
func (b *Bundle) Poll(p *sim.Proc) int {
	n := 0
	for _, ep := range b.eps {
		n += ep.pollOnce(p)
	}
	return n
}

// Wait blocks the thread until any armed endpoint in the bundle has a
// pending message (or the bundle closes). Unarmed endpoints do not wake it.
func (b *Bundle) Wait(p *sim.Proc) {
	for !b.closed && !b.anyArmedPending() {
		b.cond.Wait(p)
	}
}

// WaitTimeout is Wait with a bound; it reports whether an event arrived.
func (b *Bundle) WaitTimeout(p *sim.Proc, d sim.Duration) bool {
	deadline := p.Now().Add(d)
	for !b.closed && !b.anyArmedPending() {
		remain := deadline.Sub(p.Now())
		if remain <= 0 {
			return false
		}
		if !b.cond.WaitTimeout(p, remain) && !b.anyArmedPending() {
			return false
		}
	}
	return !b.closed
}

func (b *Bundle) anyArmedPending() bool {
	for _, ep := range b.eps {
		if ep.moved {
			continue // the image belongs to the endpoint's new node now
		}
		if ep.seg.EP.EventArmed && ep.seg.EP.PendingRecvs() > 0 {
			return true
		}
	}
	return false
}

// Close frees every endpoint in the bundle, synchronizing with the NI
// (process termination invokes the segment driver's free methods, §4.2).
func (b *Bundle) Close(p *sim.Proc) {
	if b.closed {
		return
	}
	b.closed = true
	for _, ep := range b.eps {
		if ep.moved {
			continue // freed on this node already; owned elsewhere now
		}
		b.Node.Driver.Free(p, ep.seg)
	}
	b.cond.Broadcast()
}

// ---- Live migration support (internal/migrate orchestrates) ----

// MigrationState is the serializable whole of an endpoint: the NI image
// (message queues, duplicate-suppression windows, protection key) plus the
// library state above it (translation table with credit windows, end-to-end
// message sequences, handler table). The migration manager ships it between
// nodes as bulk Active Message traffic and reconstitutes the endpoint at the
// destination with Bundle.Install.
type MigrationState struct {
	// Image is the frozen NI endpoint image; exported so the host OS driver
	// at the destination can adopt it.
	Image *nic.EndpointImage

	name     EndpointName
	mode     Mode
	handlers [NumHandlers]Handler
	onReturn ReturnHandler
	trans    *table
	msgSeq   map[int]uint64
	reverse  map[int]int
	stats    Stats
}

// Bytes estimates the serialized size of the state for the bulk transfer:
// the endpoint frame image (which contains the queued messages) plus the
// library tables above it.
func (s *MigrationState) Bytes() int {
	n := nic.FrameBytes
	n += 24 * s.trans.size   // (name, key, credits, node, ver) slots, the whole capacity
	n += 16 * len(s.msgSeq)  // per-peer sequence counters
	n += 16 * len(s.reverse) // reverse index
	return n
}

// Freeze detaches the endpoint from this bundle for migration: subsequent
// operations on the handle fail with ErrMoved and threads blocked in its
// flow-control loops wake into that error. Handlers already dispatched are
// allowed to finish — including sending their replies — before Freeze
// returns, so no consumed request loses its reply to the move. The caller
// (the migration manager) then quiesces the NI side via the segment driver
// and extracts the state. Messages still queued travel with the image.
func (ep *Endpoint) Freeze(p *sim.Proc) {
	ep.moved = true
	ep.seg.OnEvent = nil
	ep.rephase()
	ep.b.cond.Broadcast()
	ep.seg.Cond.Broadcast()
	for ep.dispatching > 0 {
		ep.seg.Cond.Wait(p)
	}
}

// Extract snapshots the frozen endpoint's complete state for transfer. The
// endpoint must be frozen and its NI side quiesced (empty send queues, no
// packets in flight) — the segment driver's BeginMigration guarantees that.
func (ep *Endpoint) Extract() *MigrationState {
	if !ep.moved {
		panic("core: Extract of an endpoint that was not frozen")
	}
	return &MigrationState{
		Image:    ep.seg.EP,
		name:     ep.name,
		mode:     ep.mode,
		handlers: ep.handlers,
		onReturn: ep.onReturn,
		trans:    ep.trans,
		msgSeq:   ep.msgSeq,
		reverse:  ep.reverse,
		stats:    ep.Stats,
	}
}

// Install reconstitutes a migrated endpoint in this bundle: the host OS
// driver adopts the image (registering it with the local NI under its
// original id and key), and the library state — translations, credits,
// sequences, handlers — resumes exactly where the source froze it. Pending
// received messages are delivered by the next poll, and peers' cached
// translations keep working once their traffic is redirected here.
func (b *Bundle) Install(state *MigrationState) (*Endpoint, error) {
	if b.closed {
		return nil, ErrClosed
	}
	seg := b.Node.Driver.InstallSegment(state.Image)
	ep := &Endpoint{
		b:        b,
		seg:      seg,
		name:     state.name,
		mode:     state.mode,
		handlers: state.handlers,
		onReturn: state.onReturn,
		trans:    state.trans,
		msgSeq:   state.msgSeq,
		reverse:  state.reverse,
		Stats:    state.stats,
	}
	seg.OnEvent = func() { b.cond.Broadcast() }
	ep.hookIdle()
	b.eps = append(b.eps, ep)
	return ep, nil
}

// MakeVirtualNetwork wires a set of endpoints into a fully connected
// virtual network using virtual node numbers: endpoint i's translation
// table maps index j to endpoint j, for all i, j. This realizes the
// traditional parallel-programming addressing model on top of the general
// naming scheme (§3.1).
func MakeVirtualNetwork(eps []*Endpoint) error {
	for _, a := range eps {
		for j, bEP := range eps {
			if err := a.Map(j, bEP.Name(), bEP.seg.EP.Key); err != nil {
				return err
			}
		}
	}
	return nil
}
