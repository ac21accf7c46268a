// Package nic models the cluster's intelligent network interface (the
// LANai): endpoint frames holding the resident set of endpoints, a weighted
// round-robin service discipline with a loiter bound, stop-and-wait
// transport over multiple logical channels with positive acknowledgment,
// randomized exponential backoff, NACKs that encode why delivery failed,
// return-to-sender for unrecoverable conditions, and an asynchronous
// driver/NI command protocol with quiescing for endpoints that have
// unacknowledged messages in flight (§5 of the paper).
//
// The firmware is a stage machine driven by one timer per NI: every protocol
// action charges the NI's embedded CPU by arming that step timer, whose
// callback runs the rest of the action and then the dispatch loop. The
// interface itself is therefore a contended resource — which is precisely
// what virtualization must manage.
package nic

import (
	"fmt"
	"maps"
	"slices"

	"virtnet/internal/container"
	"virtnet/internal/netsim"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
)

// DriverPort is the upcall interface from the NI to the host OS driver
// (requests flowing over the system endpoint in the paper's terms).
type DriverPort interface {
	// RequestResident asks the driver to bind the endpoint to a frame; the
	// NI issues it when a message arrives for a non-resident endpoint
	// (the proxy-fault path of §4.2).
	RequestResident(ep *EndpointImage)
	// Notify signals a communication event for an endpoint whose event
	// mask is armed, waking any thread blocked on it (§3.3).
	Notify(ep *EndpointImage)
}

// CmdOp enumerates driver->NI commands.
type CmdOp int

const (
	// OpLoad binds an endpoint image to a specific free frame.
	OpLoad CmdOp = iota
	// OpUnload evicts an endpoint image to host memory, quiescing in-flight
	// messages first.
	OpUnload
)

func (o CmdOp) String() string {
	if o == OpLoad {
		return "load"
	}
	return "unload"
}

// DriverCmd is an asynchronous driver request processed by the NI dispatch
// loop, interleaved with user traffic (§5.3). Done runs in NI context when
// the operation completes.
type DriverCmd struct {
	Op    CmdOp
	EP    *EndpointImage
	Frame int
	Done  func()
}

// channel is one stop-and-wait logical channel to a particular remote NI,
// stored in that NI's peer record. Each channel is statically bound to a
// network route (its index), giving FIFO delivery per channel and path
// diversity across channels. p is nil until the channel is first handed out
// (freeChannel, initChannel).
type channel struct {
	p   *peer
	idx int
	seq uint64
	// inflight is the master header of the unresolved attempt (nil when the
	// channel is free): taken from the NI's header list in sendOne, released
	// in resolveChannel, and never put on the wire itself — every
	// transmission carries a copy (injectData).
	inflight *wirePkt
	retries  int
	backoff  sim.Duration
	// timer is the channel's reusable retransmission timer: bound once when
	// the channel is first handed out, re-armed with Reset on every
	// (re)transmission. timerSeq is the attempt the current arm belongs to,
	// read when the timer fires.
	timer    sim.Timer
	timerSeq uint64
}

// rxState is per-(source NI, channel) receive state: the last sequence seen
// and the result that was sent for it, so duplicated retransmissions elicit
// the identical response. Epoch changes (peer reboot) reset it, which is how
// channels self-synchronize (§5.1); gen counts the resets.
type rxState struct {
	epoch      uint32
	gen        uint32
	lastSeen   uint64
	lastResult pktKind
	lastReason NackReason
	// rejectedSeq is the in-progress attempt (> lastSeen) that was refused
	// at arrival (staging pool full). All copies of that attempt must get
	// the same answer, or a NACKed-then-delivered race would make the
	// sender re-send an already-delivered message (a user-level duplicate).
	rejectedSeq uint64
}

// workKind tags a deferred work-queue entry.
type workKind int8

const (
	workSendControl    workKind = iota // answer a data packet refused at arrival
	workRetransmit                     // retransmission timer expired
	workCompleteUnload                 // quiesce finished; finish the unload
	workFlushAcks                      // piggyback ack delay expired
)

// workItem is one deferred unit of firmware work. The queue used to hold
// closures; a typed entry is allocation-free (the slice holds values) and
// dispatches through one switch, in the same FIFO order.
type workItem struct {
	kind   workKind
	pkt    *wirePkt      // workSendControl: the data packet to answer
	res    pktKind       // workSendControl
	reason NackReason    // workSendControl
	ch     *channel      // workRetransmit
	seq    uint64        // workRetransmit: the attempt the timer was armed for
	cmd    *DriverCmd    // workCompleteUnload
	peer   netsim.NodeID // workFlushAcks
}

// stage names what is left of the firmware action in hand once the NI CPU
// time it charged is paid: the continuation onStep runs.
type stage int8

const (
	stageNone       stage = iota // no action in hand: run the dispatch loop
	stageControl                 // sendControl: emit the ACK or NACK
	stageRetransmit              // retransmit: put the attempt on the wire again
	stageUnload                  // completeUnload: the image is in host memory
	stageFlush                   // flushAcks: emit the batched acks
	stageAck                     // handleAck
	stageNack                    // handleNack
	stagePiggy                   // takePiggy: one ack riding on the packet in hand
	stageRecv                    // handleData
	stageDeposit                 // deposit: the payload is in host memory
	stageCmd                     // runCmd
	stageLoad                    // finishLoad: the image is in its frame
	stageSendDMA                 // sendOne: the payload is in NI memory
	stageSendBuild               // injectSend
	stageSent                    // sendOne's last charge: the send is done
)

// phase is where the dispatch loop stands in its current pass.
type phase int8

const (
	phaseTop      phase = iota // start a pass: deferred work, or a control packet, or a data packet
	phaseWorkDone              // the deferred work item is done
	phaseCtlDone               // the control packet is handled
	phaseDataDone              // the data packet is handled
	phaseCmd                   // take a driver command
	phaseCmdDone               // the driver command is done
	phaseServe                 // one step of WRR endpoint service
	phaseSent                  // that step's send is done
)

// NIC is one simulated network interface.
type NIC struct {
	e      *sim.Engine
	net    *netsim.Network
	id     netsim.NodeID
	cfg    Config
	driver DriverPort
	epoch  uint32

	// step is the firmware's one timer: charge arms it for the NI CPU time
	// an action costs, and its callback (onStep) runs the rest of the action
	// from stage, then the dispatch loop from phase. did records whether the
	// loop's current pass has done anything; a pass that has not parks the
	// loop until wake re-arms step.
	step   *sim.Timer
	stage  stage
	phase  phase
	did    bool
	parked bool
	// The operands of the action in hand, which outlive its charges: the
	// deferred work item; the inbound packet, and for data its channel's
	// receive state (and that state's gen when the packet was taken), the
	// endpoint it deposits into and its next piggybacked ack; the ACK or NACK
	// being sent (a workSendControl item); the unload being completed; the
	// endpoint and channel of the send being staged.
	cur    workItem
	pkt    *wirePkt
	rxSt   *rxState
	rxGen  uint32
	rxEP   *EndpointImage
	piggy  int
	ctl    workItem
	unload *DriverCmd
	sendEP *EndpointImage
	sendCh *channel

	// inboundCtl holds arriving ACK/NACK packets; they are tiny, carry no
	// payload, and are processed ahead of data so a deep data backlog
	// cannot delay channel turnaround past the retransmission timers.
	inboundCtl container.Deque[*wirePkt]
	// inbound holds arriving data packets, bounded by Config.InboundPool.
	inbound container.Deque[*wirePkt]
	work    container.Deque[workItem]
	cmds    container.Deque[*DriverCmd]

	// wakeFn is the pre-bound wake method value, so scheduling a wakeup does
	// not allocate a fresh bound-method closure each time.
	wakeFn func()
	// hdrFree recycles wire headers of every kind — channel masters, the
	// data copies and ACK/NACKs this NI consumed (releaseTo) — msgFree
	// receive descriptors (RecvMsg.Free, called by the host poller after
	// dispatch) and descFree send descriptors (freeDesc, when a message
	// resolves), so the steady-state message path allocates nothing. hdrMade
	// and descMade count the pool misses, which is every header and
	// descriptor this NI ever made. DESIGN.md §6 has the ownership table.
	hdrFree  *wirePkt
	msgFree  *RecvMsg
	descFree *SendDesc
	hdrMade  int
	descMade int

	frames []*EndpointImage
	eps    map[int]*EndpointImage
	// peers holds one record per remote NI this NI has sent to or heard
	// from: channels, receive states, RTT estimate, pending acks.
	peers map[netsim.NodeID]*peer

	wrr         int
	loiterCount int
	loiterStart sim.Time

	requested map[int]bool // endpoints with an outstanding RequestResident

	// moved records endpoints that migrated away from this NI. Arrivals for
	// them are NACKed NackMoved so the sender's library re-resolves the name
	// through the cluster name service and re-issues toward the new node.
	moved map[int]bool

	// staging is the send descriptor popped from its queue but not yet
	// bound to a channel (mid-DMA into NI memory). A firmware reboot must
	// requeue it or it would vanish.
	staging *SendDesc
	// curCmd is the driver command being executed by the dispatch loop. The
	// command queue lives in host memory, so a firmware reboot re-reads an
	// interrupted command rather than losing it.
	curCmd *DriverCmd

	// rebootUntil marks the end of a firmware reboot outage: packets
	// arriving before it find the interface dark and die on the wire.
	rebootUntil sim.Time
	// incarnation distinguishes firmware lifetimes so a stale reboot-respawn
	// event cannot start a second dispatch loop after a crash or restart.
	incarnation uint64
	crashed     bool

	stopped bool

	// C holds the protocol counters: data/ack/nack packets,
	// retransmissions, returns to sender, loads/unloads.
	C Counters
}

// New creates an NI for host id attached to net.
func New(e *sim.Engine, net *netsim.Network, id netsim.NodeID, cfg Config) *NIC {
	n := &NIC{
		e:         e,
		net:       net,
		id:        id,
		cfg:       cfg,
		epoch:     uint32(e.Rand().Int63()) | 1,
		frames:    make([]*EndpointImage, cfg.Frames),
		eps:       make(map[int]*EndpointImage),
		peers:     make(map[netsim.NodeID]*peer),
		requested: make(map[int]bool),
		moved:     make(map[int]bool),
	}
	n.wakeFn = n.wake
	net.Attach(id, n.fromNetwork)
	if cfg.InboundPool > 0 {
		net.SetAdmission(id, func() bool { return n.inbound.Len() < cfg.InboundPool })
	}
	n.newStep()
	n.step.Reset(0)
	return n
}

// Config returns the NI's cost model.
func (n *NIC) Config() Config { return n.cfg }

// SetDriver installs the host OS driver upcall port.
func (n *NIC) SetDriver(d DriverPort) { n.driver = d }

// Stop halts the dispatch loop (used by tests).
func (n *NIC) Stop() {
	n.stopped = true
	n.wake()
}

// Register makes an endpoint image known to the NI (demultiplexing table).
// Newly registered endpoints are non-resident. Registering clears any
// forwarding state left by an earlier migration away from this node (an
// endpoint may migrate back) and any stale residency-request dedup flag.
func (n *NIC) Register(ep *EndpointImage) {
	n.eps[ep.ID] = ep
	delete(n.moved, ep.ID)
	delete(n.requested, ep.ID)
}

// SetMoved installs a forwarding entry: the endpoint is gone from this NI
// and arrivals for it must be NACKed NackMoved. The endpoint must already be
// deregistered.
func (n *NIC) SetMoved(id int) {
	if _, ok := n.eps[id]; ok {
		panic("nic: SetMoved on a registered endpoint")
	}
	n.moved[id] = true
}

// Deregister removes an endpoint from the demux table. The endpoint must
// not be resident on this NI (the driver unloads first); an image that is
// resident because the destination NI of a migration already adopted it is
// fine — it occupies no frame here.
func (n *NIC) Deregister(id int) {
	if ep, ok := n.eps[id]; ok && ep.Resident() && ep.Node == n.id {
		panic("nic: deregister of resident endpoint")
	}
	delete(n.eps, id)
}

// Endpoint looks up a registered endpoint image.
func (n *NIC) Endpoint(id int) (*EndpointImage, bool) {
	ep, ok := n.eps[id]
	return ep, ok
}

// FreeFrames reports the number of unoccupied endpoint frames.
func (n *NIC) FreeFrames() int {
	free := 0
	for _, f := range n.frames {
		if f == nil {
			free++
		}
	}
	return free
}

// FrameOccupant returns the endpoint in frame i, or nil.
func (n *NIC) FrameOccupant(i int) *EndpointImage { return n.frames[i] }

// PostSend tells the NI that new send descriptors were written.
// The host charges its own descriptor-write cost (Os); this only wakes the
// dispatch loop.
func (n *NIC) PostSend() { n.wake() }

// SubmitCmd queues a driver command for the dispatch loop.
func (n *NIC) SubmitCmd(cmd *DriverCmd) {
	n.cmds.Push(cmd)
	n.wake()
}

// wake re-arms the dispatch loop if it is parked waiting for work.
func (n *NIC) wake() {
	if n.parked {
		n.parked = false
		n.step.Reset(0)
	}
}

// InboundLen reports the depth of the dispatch loop's inbound data queue
// (diagnostics).
func (n *NIC) InboundLen() int { return n.inbound.Len() }

// fromNetwork is the netsim delivery callback (the network receive DMA
// engine depositing a packet into NI memory).
func (n *NIC) fromNetwork(p *netsim.Packet) {
	if n.crashed || n.e.Now() < n.rebootUntil {
		// The interface is dark (crashed host or rebooting firmware):
		// arrivals die here and the senders' transport masks the loss.
		n.C.add(ctrRxDarkDrop, 1)
		if w, ok := p.Payload.(*wirePkt); ok {
			if w.Kind == pktData {
				n.noteRxLoss(p.Flight, "rx-dark-drop")
			}
			w.releaseTo(n)
		}
		return
	}
	pkt := p.Payload.(*wirePkt)
	if p.Corrupt {
		// The CRC computed over the DMA'd packet fails. A corrupted header
		// cannot be trusted to NACK, so the packet is discarded silently and
		// the sender's retransmission recovers (§5.1).
		n.C.add(ctrRxCRCDrop, 1)
		if pkt.Kind == pktData {
			n.noteRxLoss(p.Flight, "rx-crc-drop")
		}
		pkt.releaseTo(n)
		return
	}
	if pkt.Kind != pktData {
		n.inboundCtl.Push(pkt)
		n.wake()
		return
	}
	// The flight comes with the network packet: on an intra-shard path it is
	// the sender's flight, which every copy of the message carries, but on a
	// cross-shard path it is the continuation this shard's fabric replica
	// opened — the sender's flight must not be touched from here.
	pkt.rxFlight = p.Flight
	if n.cfg.InboundPool > 0 && n.inbound.Len() >= n.cfg.InboundPool {
		// Staging pool exhausted: refuse the packet at arrival and let the
		// sender's flow control retransmit it later. The answer must be
		// consistent with what other copies of the same attempt received:
		// repeat the recorded response for processed attempts, and record
		// the rejection for in-progress ones. No wake: with data staged the
		// loop is not parked.
		st := n.rxFor(pkt)
		n.C.add(ctrRxPoolOverrun, 1)
		switch {
		case pkt.Seq == st.lastSeen:
			n.work.Push(workItem{kind: workSendControl, pkt: pkt, res: st.lastResult, reason: st.lastReason})
		case pkt.Seq < st.lastSeen:
			n.work.Push(workItem{kind: workSendControl, pkt: pkt, res: pktAck, reason: NackNone})
		default:
			st.rejectedSeq = pkt.Seq
			n.work.Push(workItem{kind: workSendControl, pkt: pkt, res: pktNack, reason: NackOverrun})
		}
		return
	}
	pkt.arrived = n.e.Now()
	n.inbound.Push(pkt)
	n.wake()
}

// noteRxLoss annotates a traced arrival that died at the receiving NI. A
// destination-shard continuation (Link != 0) ends here — its source segment
// is already finalized and the masking retransmission crosses untraced —
// while an intra-shard flight stays open for the sender's retransmission.
func (n *NIC) noteRxLoss(fl *obs.Flight, what string) {
	if fl == nil {
		return
	}
	if fl.Link != 0 {
		fl.Drop(obs.StageWire, what, n.e.Now())
		return
	}
	fl.Note(what, n.e.Now())
}

// ---- The dispatch loop ----

// newStep gives the firmware a fresh step timer. The timer it replaces may
// still hold a charge of the firmware Reboot or Crash just killed: that
// charge fires when it was due, finds its timer replaced, and does nothing.
func (n *NIC) newStep() {
	var t *sim.Timer
	t = n.e.NewTimer(func() {
		if n.step == t {
			n.onStep()
		}
	})
	n.step = t
}

// charge occupies the NI CPU for d, the cost of the action in hand; once it
// is paid, the step timer runs the action on from s.
func (n *NIC) charge(d sim.Duration, s stage) {
	n.stage = s
	n.step.Reset(d)
}

// onStep runs when a charge is paid, or when the loop is kicked with no
// action in hand: the rest of the charged action, then the dispatch loop,
// which returns at once if the action charged again.
func (n *NIC) onStep() {
	s := n.stage
	n.stage = stageNone
	switch s {
	case stageControl:
		n.emitControl()
	case stageRetransmit:
		n.reinject()
	case stageUnload:
		n.finishUnload()
	case stageFlush:
		n.emitAcks()
	case stageAck:
		n.handleAck()
	case stageNack:
		n.handleNack()
	case stagePiggy:
		n.takePiggy()
	case stageRecv:
		n.handleData()
	case stageDeposit:
		n.deposit()
	case stageCmd:
		n.runCmd()
	case stageLoad:
		n.finishLoad()
	case stageSendDMA:
		n.charge(sendCritical+checkOverhead, stageSendBuild)
	case stageSendBuild:
		n.injectSend()
	}
	n.dispatch()
}

// dispatch is the firmware dispatch loop. Deferred work (timer-driven
// retransmissions, completed quiesces) runs first; then each pass
// interleaves one inbound packet, one driver command, and one step of the
// WRR endpoint service, so a saturating receive stream cannot starve
// outgoing traffic (the paper's NI interleaves driver and user servicing
// the same way, §5.3). It runs until an action charges NI time, and onStep
// re-enters it where it stood, or until a pass finds nothing to do and the
// loop parks.
func (n *NIC) dispatch() {
	for n.stage == stageNone {
		switch n.phase {
		case phaseTop:
			if n.stopped {
				return
			}
			n.did = false
			if w, ok := n.work.Pop(); ok {
				n.cur, n.phase = w, phaseWorkDone
				n.runWork(w)
			} else if pkt, ok := n.inboundCtl.Pop(); ok {
				n.pkt, n.phase = pkt, phaseCtlDone
				n.handlePkt(pkt)
			} else if pkt, ok := n.inbound.Pop(); ok {
				n.net.Admit(n.id) // back pressure: a staging slot freed
				n.pkt, n.phase = pkt, phaseDataDone
				n.handlePkt(pkt)
			} else {
				n.phase = phaseCmd
			}
		case phaseWorkDone:
			if n.cur.kind == workSendControl {
				n.cur.pkt.releaseTo(n)
			}
			n.cur, n.phase = workItem{}, phaseTop
		case phaseCtlDone:
			n.pkt.releaseTo(n)
			n.pkt, n.phase = nil, phaseTop
		case phaseDataDone:
			n.pkt.releaseTo(n)
			n.pkt, n.rxSt, n.rxEP = nil, nil, nil
			n.did, n.phase = true, phaseCmd
		case phaseCmd:
			n.phase = phaseServe
			if cmd, ok := n.cmds.Pop(); ok {
				n.curCmd, n.phase = cmd, phaseCmdDone
				n.charge(driverOpCost, stageCmd)
			}
		case phaseCmdDone:
			n.curCmd = nil
			n.did, n.phase = true, phaseServe
		case phaseServe:
			n.phase = phaseTop
			if n.serveEndpoints() {
				n.phase = phaseSent
			} else if !n.did {
				n.parked = true
				return
			}
		case phaseSent:
			n.loiter()
			n.phase = phaseTop
		}
	}
}

// runWork starts one deferred work item.
func (n *NIC) runWork(w workItem) {
	switch w.kind {
	case workSendControl:
		n.sendControl(w.pkt, w.res, w.reason)
	case workRetransmit:
		n.retransmit(w.ch, w.seq)
	case workCompleteUnload:
		n.completeUnload(w.cmd)
	case workFlushAcks:
		n.flushAcks(w.peer)
	}
}

// ---- Send path ----

// sendable returns the queue whose head descriptor can be serviced now
// (replies preferred) and the free channel it would go on, or nil. If a head
// is in backoff, a wakeup is scheduled for when it becomes ready.
func (n *NIC) sendable(ep *EndpointImage) (*container.Deque[*SendDesc], *channel) {
	if ep.State != EPResident {
		return nil, nil
	}
	for _, q := range [2]*container.Deque[*SendDesc]{&ep.RepSendQ, &ep.SendQ} {
		d, ok := q.Peek()
		if !ok {
			continue
		}
		if d.NextTry > n.e.Now() {
			n.e.AfterFuncAt(d.NextTry, n.wakeFn)
			continue
		}
		if ch := n.freeChannel(d.DstNI); ch != nil {
			return q, ch
		}
	}
	return nil, nil
}

// serveEndpoints performs one step of the weighted round-robin service
// discipline: it starts a send from the current endpoint, or from the next
// one with something sendable, and reports whether it found one. loiter
// finishes the step once the send is done.
func (n *NIC) serveEndpoints() bool {
	nf := len(n.frames)
	for scan := 0; scan < nf; scan++ {
		ep := n.frames[n.wrr]
		if ep != nil {
			if q, ch := n.sendable(ep); q != nil {
				if n.loiterCount == 0 {
					n.loiterStart = n.e.Now()
				}
				n.sendOne(ep, q, ch)
				return true
			}
		}
		n.advanceWRR()
	}
	return false
}

// loiter ends a WRR step whose send is done: the discipline stays on the
// endpoint until its loiter budget (LoiterMsgs messages or LoiterTime, both
// scaled by the endpoint's share weight) is exhausted or it has nothing
// sendable, then advances.
func (n *NIC) loiter() {
	ep := n.sendEP
	n.sendEP, n.sendCh = nil, nil
	n.loiterCount++
	w := ep.Weight
	if w < 1 {
		w = 1
	}
	if n.loiterCount >= n.cfg.LoiterMsgs*w ||
		n.e.Now().Sub(n.loiterStart) >= n.cfg.LoiterTime*sim.Duration(w) {
		// Loiter budget exhausted with traffic still pending:
		// the fairness mechanism (not idleness) forced the move.
		n.C.add(ctrWRRLoiterExpiry, 1)
		n.advanceWRR()
	} else if q, _ := n.sendable(ep); q == nil {
		n.advanceWRR()
	}
}

func (n *NIC) advanceWRR() {
	if n.wrr++; n.wrr == len(n.frames) {
		n.wrr = 0
	}
	n.loiterCount = 0
	if n.wrr == 0 {
		n.C.add(ctrWRRRounds, 1)
	}
}

// sendOne starts transmitting the head descriptor of queue q on ch, the free
// channel sendable found for it (nothing in between takes or frees a
// channel: OnSendSpace runs no firmware): the descriptor is staging until
// injectSend puts it on the wire.
func (n *NIC) sendOne(ep *EndpointImage, q *container.Deque[*SendDesc], ch *channel) {
	full := q.Len() >= SendQDepth
	d, _ := q.Pop()
	if full && ep.OnSendSpace != nil {
		ep.OnSendSpace()
	}
	d.Flight.Mark(obs.StageWRRWait, n.e.Now())
	n.staging = d
	n.sendEP, n.sendCh = ep, ch
	ep.LastActive = n.e.Now()
	ep.Serviced++
	ep.ServicedBytes += int64(len(d.Payload))

	// Stage bulk payload from host memory into NI memory over the SBUS.
	if len(d.Payload) > 0 {
		n.charge(dmaSetup+n.dmaTime(len(d.Payload), sbusReadBps), stageSendDMA)
		return
	}
	n.charge(sendCritical+checkOverhead, stageSendBuild)
}

// injectSend is sendOne past its critical path: the staged descriptor goes
// on the wire as its channel's next attempt.
func (n *NIC) injectSend() {
	d, ep, ch := n.staging, n.sendEP, n.sendCh
	ch.seq++
	pkt := n.allocHdr()
	pkt.Kind = pktData
	pkt.SrcNI = n.id
	pkt.DstNI = d.DstNI
	pkt.Chan = ch.idx
	pkt.Seq = ch.seq
	pkt.Epoch = n.epoch
	pkt.Stamp = n.e.Now()
	pkt.DstEP = d.DstEP
	pkt.SrcEP = d.SrcEP
	pkt.MsgID = d.MsgID
	pkt.Key = d.Key
	pkt.ReplyKey = d.ReplyKey
	pkt.Handler = d.Handler
	pkt.IsReply = d.IsReply
	pkt.Args = d.Args
	pkt.Payload = d.Payload
	pkt.desc = d
	pkt.flight = d.Flight
	if d.FirstSend == 0 {
		d.FirstSend = n.e.Now()
	}
	ch.inflight = pkt
	ch.retries = 0
	ch.backoff = n.cfg.RetransBase
	ep.inflight++
	n.staging = nil
	if n.cfg.PiggybackAcks {
		pkt.Piggy = n.takeAcks(ch.p, 4)
	}
	d.Flight.Mark(obs.StageNISend, n.e.Now())
	n.injectData(ch)
	n.armTimer(ch)
	n.C.add(ctrTxData, 1)
	n.C.add(ctrTxBytes, int64(len(d.Payload)))
	n.charge(n.cfg.SendPost, stageSent)
}

// injectData puts one transmission of ch's unresolved attempt on the wire:
// a copy of the master header without the sender's own state, owned from
// here on by the wire and released by the NI it reaches.
func (n *NIC) injectData(ch *channel) {
	m := ch.inflight
	w := n.allocHdr()
	*w = *m
	w.desc, w.flight, w.netPkt = nil, nil, nil
	np := n.net.AllocPacket()
	np.Src, np.Dst, np.Payload = n.id, m.DstNI, w
	np.Size = headerBytes + len(m.Payload) + 8*len(m.Piggy)
	np.Flight = m.flight
	n.net.Send(np, ch.idx)
	// Keep a handle on the transmission so the retransmit path can see
	// whether this copy is parked behind back pressure; the handle is
	// released when the attempt resolves (or on the next retransmission).
	if old := m.netPkt; old != nil {
		old.Release()
	}
	m.netPkt = np
}

// injectControl puts an ACK or NACK on the wire. Control packets are sent
// once, so the header itself goes.
func (n *NIC) injectControl(ctl *wirePkt, route int) {
	np := n.net.AllocPacket()
	np.Src, np.Dst, np.Payload = n.id, ctl.DstNI, ctl
	np.Size = ackBytes + 8*len(ctl.Piggy)
	np.Control = true
	n.net.Send(np, route)
	np.Release()
}

func (n *NIC) dmaTime(bytes int, bps float64) sim.Duration {
	return sim.Duration(float64(bytes) * 1e9 / bps)
}

// initChannel binds a channel to its record and route the first time it is
// handed out, with the retransmission timer it keeps from then on.
func (n *NIC) initChannel(ch *channel, p *peer, idx int) {
	ch.p, ch.idx = p, idx
	n.e.InitTimer(&ch.timer, func() {
		n.work.Push(workItem{kind: workRetransmit, ch: ch, seq: ch.timerSeq})
		n.wake()
	})
}

// armTimer schedules a retransmission with randomized exponential backoff
// (or the adaptive RTT-based timeout when the extension is enabled).
func (n *NIC) armTimer(ch *channel) {
	jitter := 1.0 + 0.5*n.e.Rand().Float64()
	d := sim.Duration(float64(n.retransDelay(ch)) * jitter)
	ch.timerSeq = ch.inflight.Seq
	ch.timer.Reset(d)
}

// retransmit handles a retransmission timeout on ch for the given attempt.
func (n *NIC) retransmit(ch *channel, seq uint64) {
	pkt := ch.inflight
	if pkt == nil || pkt.Seq != seq {
		return // stale timer: the attempt already resolved
	}
	if pkt.netPkt != nil && pkt.netPkt.Parked {
		// The copy is parked in the fabric by back pressure: the sender's
		// injection path is blocked, so no duplicate can be created. Hold
		// the timer instead (and do not count unreachability — the network
		// is exerting flow control, not failing).
		pkt.desc.FirstSend = 0
		n.armTimer(ch)
		n.C.add(ctrTxRetransHeld, 1)
		return
	}
	d := pkt.desc
	now := n.e.Now()
	if now.Sub(d.FirstSend) > n.cfg.ReturnToSenderAfter {
		// Prolonged absence of acknowledgments: unrecoverable transport
		// condition; return the message to its sender (§3.2, §5.1).
		n.resolveChannel(ch)
		n.returnToSender(d, NackNone)
		n.C.add(ctrTxTimeoutReturn, 1)
		return
	}
	if ch.retries >= n.cfg.MaxRetries {
		// Bounded consecutive retransmissions: unbind the message from the
		// channel so the channel can be reused; a later service pass
		// reacquires a channel and rebinds it (§5.1).
		n.resolveChannel(ch)
		d.NextTry = now.Add(ch.backoff)
		if !n.requeue(d) {
			n.returnToSender(d, NackOverrun)
		}
		n.C.add(ctrTxUnbind, 1)
		return
	}
	ch.retries++
	ch.backoff *= 2
	if ch.backoff > n.cfg.RetransMax {
		ch.backoff = n.cfg.RetransMax
	}
	d.Flight.Note("retransmit", now)
	n.charge(sendCritical, stageRetransmit)
}

// reinject is retransmit past its critical path: the attempt on the work
// item's channel goes on the wire again.
func (n *NIC) reinject() {
	ch := n.cur.ch
	n.injectData(ch)
	n.armTimer(ch)
	n.C.add(ctrTxRetrans, 1)
}

// resolveChannel frees ch, performs quiesce accounting for the source
// endpoint of the in-flight message and returns the message's descriptor
// (nil if the channel was free) for the caller to free, requeue or return to
// its sender.
func (n *NIC) resolveChannel(ch *channel) *SendDesc {
	pkt := ch.inflight
	ch.inflight = nil
	ch.timer.Stop()
	if pkt == nil {
		return nil
	}
	if pkt.netPkt != nil {
		pkt.netPkt.Release()
	}
	d := pkt.desc
	pkt.releaseTo(n)
	if ep, ok := n.eps[d.SrcEP]; ok {
		ep.inflight--
		if ep.State == EPQuiescing && ep.inflight == 0 && ep.unloadWait != nil {
			// unloadWait stays set until completeUnload finishes, so a
			// firmware reboot that wipes the deferred-work queue can requeue
			// the completion (completeUnload is idempotent under that guard).
			n.work.Push(workItem{kind: workCompleteUnload, cmd: ep.unloadWait})
		}
	}
	return d
}

// requeue puts a NACKed or unbound descriptor back at the head of its
// endpoint's send queue, preserving FIFO order. It reports success. If the
// endpoint was evicted while this message was in flight, the driver is
// asked to make it resident again (the queue is now non-empty, §4.2).
func (n *NIC) requeue(d *SendDesc) bool {
	ep, ok := n.eps[d.SrcEP]
	if !ok {
		return false
	}
	if d.NextTry > n.e.Now() {
		n.e.AfterFuncAt(d.NextTry, n.wakeFn)
	}
	q := ep.sendQueueFor(d)
	if q.Len() >= SendQDepth {
		return false
	}
	q.PushFront(d)
	if ep.State == EPHost && n.driver != nil && !n.requested[ep.ID] {
		n.requested[ep.ID] = true
		n.driver.RequestResident(ep)
	}
	return true
}

// returnToSender deposits an undeliverable-message event into the source
// endpoint so the application's handler can decide what to do (§3.2). The
// descriptor dies here.
func (n *NIC) returnToSender(d *SendDesc, reason NackReason) {
	d.Flight.Drop(obs.StageWire, returnedNote[reason], n.e.Now())
	ep, ok := n.eps[d.SrcEP]
	if !ok {
		n.C.add(ctrRtsDropped, 1)
		n.freeDesc(d)
		return
	}
	msg := n.allocMsg()
	msg.SrcNI = d.DstNI
	msg.SrcEP = d.DstEP
	msg.Handler = d.Handler
	msg.IsReply = d.IsReply
	msg.IsReturn = true
	msg.Reason = reason
	msg.Args = d.Args
	msg.Payload = d.Payload
	msg.MsgID = d.MsgID
	msg.Key = d.Key
	msg.Arrive = n.e.Now()
	msg.Visible = n.e.Now()
	if ep.RepQ.Len() < ep.recvDepth {
		ep.RepQ.Push(msg)
	} else {
		// The reply queue is full (the host is not polling — e.g. the
		// endpoint is frozen for migration). Spill to the host-memory
		// overflow list rather than dropping the undeliverable event.
		ep.retOverflow.Push(msg)
		n.C.add(ctrRtsOverflow, 1)
	}
	n.C.add(ctrRtsDelivered, 1)
	if ep.OnDeliver != nil {
		ep.OnDeliver(msg)
	}
	if ep.EventArmed && n.driver != nil {
		n.driver.Notify(ep)
	}
	n.freeDesc(d)
}

// ---- Receive path ----

// handlePkt starts handling an inbound packet by charging its receive cost;
// a data packet pays for the acks riding on it first.
func (n *NIC) handlePkt(pkt *wirePkt) {
	switch pkt.Kind {
	case pktData:
		n.piggy = 0
		n.nextPiggy()
	case pktAck:
		n.charge(ackRecv, stageAck)
	case pktNack:
		n.charge(nackRecv, stageNack)
	}
}

// handleData is a data packet past its receive critical path: answer a
// duplicate as before, or deposit the packet and acknowledge it, or refuse
// it with a NACK.
func (n *NIC) handleData() {
	pkt := n.pkt
	n.C.add(ctrRxData, 1)
	st := n.rxFor(pkt)
	if pkt.Seq <= st.lastSeen {
		// Duplicate of an attempt we already answered: repeat the answer.
		n.C.add(ctrRxDup, 1)
		if pkt.Seq == st.lastSeen {
			n.sendControl(pkt, st.lastResult, st.lastReason)
		} else {
			n.sendControl(pkt, pktAck, NackNone)
		}
		return
	}
	if pkt.Seq == st.rejectedSeq {
		// A copy of this attempt was already refused at arrival; answer
		// identically so the sender's single resolution stands.
		n.C.add(ctrRxRejectedDup, 1)
		n.sendControl(pkt, pktNack, NackOverrun)
		return
	}
	n.rxSt, n.rxGen = st, st.gen
	ep, result, reason := n.accept(pkt)
	if ep == nil {
		n.answer(result, reason)
		return
	}
	n.rxEP = ep
	if len(pkt.Payload) > 0 {
		// Stage payload from NI memory to the host buffer over the SBUS.
		n.charge(dmaSetup+n.dmaTime(len(pkt.Payload), sbusWriteBps), stageDeposit)
		return
	}
	n.deposit()
}

// accept decides whether a data packet can be deposited: it returns the
// destination endpoint, or nil and the answer to send instead.
func (n *NIC) accept(pkt *wirePkt) (*EndpointImage, pktKind, NackReason) {
	ep, ok := n.eps[pkt.DstEP]
	if !ok {
		if n.moved[pkt.DstEP] {
			n.C.add(ctrRxMoved, 1)
			return nil, pktNack, NackMoved
		}
		return nil, pktNack, NackNoEndpoint
	}
	if ep.Node != n.id {
		// Migration transfer window: the image was already adopted by the
		// destination NI but the source's forwarding entry is not installed
		// yet. The new location is published before adoption, so bouncing
		// with NackMoved (rather than depositing into a queue another NI now
		// services) resolves to a fresher binding.
		n.C.add(ctrRxMoved, 1)
		return nil, pktNack, NackMoved
	}
	if ep.Key != pkt.Key {
		return nil, pktNack, NackBadKey
	}
	if ep.State != EPResident {
		// Proxy fault: ask the driver to make the endpoint resident, then
		// NACK so the sender retransmits later (§4.2, §6.4.1).
		if !n.requested[ep.ID] && n.driver != nil {
			n.requested[ep.ID] = true
			n.driver.RequestResident(ep)
		}
		return nil, pktNack, NackNotResident
	}
	if pkt.MsgID != 0 && ep.SeenMsg(pkt.SrcEP, pkt.MsgID) {
		// End-to-end duplicate: an earlier attempt (possibly on another
		// channel, after an unbind/rebind) was already delivered.
		// Acknowledge so the sender resolves, but do not redeposit.
		n.C.add(ctrRxE2EDup, 1)
		return nil, pktAck, NackNone
	}
	if ep.recvQueueFor(pkt.IsReply).Len() >= ep.recvDepth {
		return nil, pktNack, NackOverrun
	}
	return ep, pktAck, NackNone
}

// deposit puts the data packet in hand into its endpoint's receive queue
// and acknowledges it. accept found room in that queue, and it still has
// room: only firmware actions (deposit, returnToSender) push to a receive
// queue, and none runs between accept and here, since the payload DMA holds
// the firmware and a reboot or crash halts the action instead.
func (n *NIC) deposit() {
	pkt, ep := n.pkt, n.rxEP
	msg := n.allocMsg()
	msg.SrcNI = pkt.SrcNI
	msg.SrcEP = pkt.SrcEP
	msg.Handler = pkt.Handler
	msg.IsReply = pkt.IsReply
	msg.Args = pkt.Args
	msg.Payload = pkt.Payload
	msg.ReplyKey = pkt.ReplyKey
	msg.Arrive = n.e.Now()
	msg.Visible = n.e.Now().Add(depositLatency)
	if fl := pkt.rxFlight; fl != nil {
		// Close the wire interval at the copy's recorded arrival, then the
		// NI receive interval (critical path + deposit DMA) at now.
		fl.Mark(obs.StageWire, pkt.arrived)
		fl.Mark(obs.StageRemoteNI, n.e.Now())
		msg.Flight = fl
	}
	ep.recvQueueFor(pkt.IsReply).Push(msg)
	if pkt.MsgID != 0 {
		ep.MarkMsg(pkt.SrcEP, pkt.MsgID)
	}
	ep.LastActive = n.e.Now()
	n.C.add(ctrRxDelivered, 1)
	n.C.add(ctrRxBytes, int64(len(pkt.Payload)))
	if ep.OnDeliver != nil {
		ep.OnDeliver(msg)
	}
	if ep.EventArmed && n.driver != nil {
		n.driver.Notify(ep)
	}
	n.answer(pktAck, NackNone)
}

// answer records the verdict on the data packet in hand in its channel's
// receive state and sends it: an ACK through queueAck, a NACK at once. A copy
// from a new epoch refused at arrival (fromNetwork) while a deposit was paid
// for resets that state in place; the verdict then belongs to the epoch the
// reset ended and is sent but not recorded.
func (n *NIC) answer(result pktKind, reason NackReason) {
	pkt, st := n.pkt, n.rxSt
	if st.gen == n.rxGen {
		st.lastSeen = pkt.Seq
		st.lastResult = result
		st.lastReason = reason
	}
	if result == pktAck {
		n.queueAck(pkt)
	} else {
		n.sendControl(pkt, result, reason)
	}
}

// sendControl emits an ACK or NACK for a data packet, reflecting its
// timestamp (§5.1), once the cost of generating it is paid (emitControl).
func (n *NIC) sendControl(data *wirePkt, kind pktKind, reason NackReason) {
	n.ctl = workItem{kind: workSendControl, pkt: data, res: kind, reason: reason}
	if kind == pktAck {
		n.charge(n.cfg.AckSend, stageControl)
	} else {
		n.charge(nackSend, stageControl)
	}
}

// emitControl is sendControl past its charge.
func (n *NIC) emitControl() {
	c := n.ctl
	n.ctl = workItem{}
	if c.res == pktAck {
		n.C.add(ctrTxAck, 1)
	} else {
		n.C.add(ctrTxNack+int(c.reason), 1)
	}
	data := c.pkt
	ctl := n.allocHdr()
	ctl.Kind = c.res
	ctl.SrcNI = n.id
	ctl.DstNI = data.SrcNI
	ctl.Chan = data.Chan
	ctl.Seq = data.Seq
	ctl.Epoch = data.Epoch
	ctl.Stamp = data.Stamp
	ctl.Reason = c.reason
	n.injectControl(ctl, data.Chan)
}

// handleAck is an ACK past ackRecv: it resolves the acknowledged attempt,
// or, for a batch of flushed acks, each of them in turn. An answer that
// names an earlier epoch is stale even when its (channel, seq) matches:
// Reboot and Restart start every channel's seq over under a new epoch, so
// the match is a new attempt that the answer does not acknowledge.
func (n *NIC) handleAck() {
	pkt := n.pkt
	n.C.add(ctrRxAck, 1)
	if len(pkt.Piggy) > 0 {
		// Batched acknowledgments (piggyback extension flush path).
		n.piggy = 0
		n.nextPiggy()
		return
	}
	ch := n.chanFor(pkt.SrcNI, pkt.Chan)
	if ch == nil || ch.inflight == nil || ch.inflight.Seq != pkt.Seq || pkt.Epoch != n.epoch {
		n.C.add(ctrRxAckStale, 1)
		return
	}
	n.observeRTT(ch, pkt.Stamp)
	n.freeDesc(n.resolveChannel(ch)) // acknowledged: the descriptor dies here
}

// handleNack is a NACK past nackRecv; as with an ACK, one from an earlier
// epoch is stale.
func (n *NIC) handleNack() {
	pkt := n.pkt
	n.C.add(ctrRxNack+int(pkt.Reason), 1)
	ch := n.chanFor(pkt.SrcNI, pkt.Chan)
	if ch == nil || ch.inflight == nil || ch.inflight.Seq != pkt.Seq || pkt.Epoch != n.epoch {
		n.C.add(ctrRxNackStale, 1)
		return
	}
	d := n.resolveChannel(ch)
	d.Flight.Note(nackNote[pkt.Reason], n.e.Now())
	if !pkt.Reason.transient() {
		n.returnToSender(d, pkt.Reason)
		return
	}
	// A NACK is a response: the peer is alive, so this is congestion or a
	// non-resident endpoint, not the "prolonged absence of
	// acknowledgments" that §5.1 treats as unrecoverable. Reset the
	// unreachability clock and back off before retransmitting.
	d.FirstSend = 0
	d.nackBackoff(n)
	if !n.requeue(d) {
		n.returnToSender(d, pkt.Reason)
	}
}

// nackBackoff advances the descriptor-level backoff used when a message is
// NACKed (distinct from channel-level timeout backoff).
func (d *SendDesc) nackBackoff(n *NIC) {
	d.nacks++
	b := nackBackoffBase << uint(d.nacks-1)
	if b > n.cfg.RetransMax {
		b = n.cfg.RetransMax
	}
	jitter := 1.0 + 0.5*n.e.Rand().Float64()
	d.NextTry = n.e.Now().Add(sim.Duration(float64(b) * jitter))
}

// ---- Driver command processing ----

// runCmd carries out the command in hand past driverOpCost.
func (n *NIC) runCmd() {
	switch cmd := n.curCmd; cmd.Op {
	case OpLoad:
		n.handleLoad(cmd)
	case OpUnload:
		n.handleUnload(cmd)
	}
}

func (n *NIC) handleLoad(cmd *DriverCmd) {
	ep := cmd.EP
	if ep.State == EPResident {
		delete(n.requested, ep.ID)
		if cmd.Done != nil {
			cmd.Done()
		}
		return
	}
	if cmd.Frame < 0 || cmd.Frame >= len(n.frames) || n.frames[cmd.Frame] != nil {
		panic(fmt.Sprintf("nic%d: load %d into occupied/invalid frame %d", n.id, ep.ID, cmd.Frame))
	}
	// Stage the endpoint image from host memory into the frame.
	n.charge(dmaSetup+n.dmaTime(FrameBytes, sbusReadBps), stageLoad)
}

// finishLoad is handleLoad past the image DMA: the endpoint is resident.
func (n *NIC) finishLoad() {
	cmd := n.curCmd
	ep := cmd.EP
	n.frames[cmd.Frame] = ep
	ep.Frame = cmd.Frame
	ep.State = EPResident
	ep.LoadedAt = n.e.Now()
	delete(n.requested, ep.ID)
	n.C.add(ctrDrvLoad, 1)
	if cmd.Done != nil {
		cmd.Done()
	}
}

func (n *NIC) handleUnload(cmd *DriverCmd) {
	ep := cmd.EP
	if ep.State == EPHost {
		if cmd.Done != nil {
			cmd.Done()
		}
		return
	}
	ep.unloadWait = cmd
	if ep.inflight > 0 {
		// Transient state: stop new sends, keep retransmitting in-flight
		// packets until all copies are accounted for (§5.3).
		ep.State = EPQuiescing
		n.C.add(ctrDrvQuiesce, 1)
		return
	}
	n.completeUnload(cmd)
}

// completeUnload evicts the endpoint of an unload with nothing (left) in
// flight: the image goes to host memory, then finishUnload frees its frame.
func (n *NIC) completeUnload(cmd *DriverCmd) {
	if cmd.EP.unloadWait != cmd {
		return // duplicate completion (reboot-recovery requeue)
	}
	n.unload = cmd
	n.charge(dmaSetup+n.dmaTime(FrameBytes, sbusWriteBps), stageUnload)
}

// finishUnload is completeUnload past the image DMA.
func (n *NIC) finishUnload() {
	cmd := n.unload
	n.unload = nil
	ep := cmd.EP
	if ep.unloadWait != cmd {
		return
	}
	ep.unloadWait = nil
	if ep.Frame >= 0 {
		n.frames[ep.Frame] = nil
	}
	ep.Frame = -1
	ep.State = EPHost
	// A make-resident request raised while this unload was in flight may
	// have been discarded by the driver (the endpoint still looked
	// resident, §4.3's ordering race); clear the dedup flag so the next
	// arrival re-requests residency.
	delete(n.requested, ep.ID)
	n.C.add(ctrDrvUnload, 1)
	if cmd.Done != nil {
		cmd.Done()
	}
}

// ---- Fault injection: firmware reboot and host crash ----

// halt kills the firmware mid-action, as a reboot or a crash does: the
// action in hand stops where it stands, and the loop stays dead until
// respawn or Restart kicks it from the top. What host memory still holds of
// the action (curCmd, staging) is the caller's to recover.
func (n *NIC) halt() {
	n.newStep()
	n.stage, n.phase, n.did, n.parked = stageNone, phaseTop, false, false
	n.cur, n.ctl = workItem{}, workItem{}
	n.pkt, n.rxSt, n.rxEP, n.piggy = nil, nil, nil, 0
	n.unload, n.sendEP, n.sendCh = nil, nil, nil
}

// respawn restarts the dispatch loop after d of outage, unless the firmware
// incarnation changed in the meantime (a crash, restart, or second reboot).
func (n *NIC) respawn(d sim.Duration) {
	gen := n.incarnation
	n.e.AfterFunc(d, func() {
		if gen != n.incarnation || n.crashed || n.stopped {
			return
		}
		n.step.Reset(0)
	})
}

// Reboot models an NI firmware reboot of the given outage: the dispatch loop
// dies mid-instruction and NI SRAM is lost (staging pools, receive windows,
// channel bindings), while host-memory state (the registered endpoint table,
// send queues, the driver command queue) survives and is re-read when the
// firmware comes back. Every in-flight message is unbound and requeued, and
// the epoch changes, so the first packet of the new incarnation makes each
// receiver reset its per-channel sequence window — the channel-reset
// handshake of §5.1. End-to-end MsgID suppression keeps user-level delivery
// exactly-once across the reset. Must be called from event context or from a
// proc, not from a callback the firmware itself makes (DriverCmd.Done,
// OnDeliver, a DriverPort upcall).
func (n *NIC) Reboot(outage sim.Duration) {
	if n.crashed || n.stopped {
		return
	}
	n.C.add(ctrNICReboot, 1)
	n.incarnation++
	n.rebootUntil = n.e.Now().Add(outage)
	n.halt()
	// NI SRAM is gone: arrival staging and deferred work here, the
	// receive-side sequence windows, pending piggyback acks and RTT
	// estimates in the peer records below.
	n.inbound.Reset()
	n.inboundCtl.Reset()
	n.work.Reset()
	// The driver command queue lives in host memory; an interrupted command
	// is re-read from the front after the reboot.
	if cmd := n.curCmd; cmd != nil {
		n.curCmd = nil
		n.cmds.PushFront(cmd)
	}
	// A descriptor staged mid-DMA goes back to the head of its queue.
	if d := n.staging; d != nil {
		n.staging = nil
		d.FirstSend = 0
		if !n.requeue(d) {
			n.returnToSender(d, NackNone)
		}
	}
	// Unbind every in-flight message and requeue it for a fresh channel
	// under the new epoch, peer by peer in NodeID order so recovery does not
	// follow map order. The outage is local, not the destination's failure,
	// so the unreachability clock restarts.
	for _, id := range slices.Sorted(maps.Keys(n.peers)) {
		p := n.peers[id]
		p.rx0.reset(0)
		for _, chunk := range p.rxs {
			for i := range chunk {
				chunk[i].reset(0)
			}
		}
		p.rtt, p.acks = rttEst{}, nil
		for ch := range p.channels {
			ch.timer.Stop()
			if ch.inflight != nil {
				d := n.resolveChannel(ch)
				d.FirstSend = 0
				if !n.requeue(d) {
					n.returnToSender(d, NackNone)
				}
			}
			ch.seq, ch.retries, ch.backoff = 0, 0, 0
		}
	}
	// Quiesces whose deferred completion was wiped with the work queue (or
	// completed just now while unbinding) are requeued; completeUnload's
	// unloadWait guard makes duplicates harmless.
	for _, id := range slices.Sorted(maps.Keys(n.eps)) {
		ep := n.eps[id]
		if ep.State == EPQuiescing && ep.inflight == 0 && ep.unloadWait != nil {
			cmd := ep.unloadWait
			n.work.Push(workItem{kind: workCompleteUnload, cmd: cmd})
		}
	}
	n.epoch = uint32(n.e.Rand().Int63()) | 1
	n.respawn(outage)
}

// Crash models whole-host failure: the NI goes dark instantly, dropping all
// resident endpoints and every packet of in-flight DMA. Nothing is preserved
// — Restart brings the interface back empty under a new epoch, and the host
// side must recreate and re-register its endpoints. The host's access link
// is marked down so in-fabric packets toward the dead host drop at the leaf
// switch; senders see silence, exhaust their retries, and return messages to
// sender (§3.2). Must be called from event context or from a proc, not from
// a callback the firmware itself makes.
func (n *NIC) Crash() {
	if n.crashed {
		return
	}
	n.crashed = true
	n.incarnation++
	n.C.add(ctrNICCrash, 1)
	n.halt()
	n.net.SetHostLinkDown(n.id, true)
	// Stop channel timers so no stale retransmission closure survives into
	// a later incarnation.
	for _, id := range slices.Sorted(maps.Keys(n.peers)) {
		for ch := range n.peers[id].channels {
			ch.timer.Stop()
			if m := ch.inflight; m != nil {
				if m.netPkt != nil {
					m.netPkt.Release()
				}
				m.releaseTo(n)
				ch.inflight = nil
			}
		}
	}
	n.inbound.Reset()
	n.inboundCtl.Reset()
	n.work.Reset()
	n.cmds.Reset()
	n.curCmd, n.staging = nil, nil
	n.peers = make(map[netsim.NodeID]*peer)
	n.eps = make(map[int]*EndpointImage)
	n.frames = make([]*EndpointImage, n.cfg.Frames)
	n.requested = make(map[int]bool)
	n.moved = make(map[int]bool)
	n.wrr = 0
	n.loiterCount = 0
}

// Restart powers the crashed NI back up: empty frames, a fresh epoch, and
// the access link restored.
func (n *NIC) Restart() {
	if !n.crashed {
		return
	}
	n.crashed = false
	n.incarnation++
	n.rebootUntil = 0
	n.epoch = uint32(n.e.Rand().Int63()) | 1
	n.net.SetHostLinkDown(n.id, false)
	n.step.Reset(0)
	n.C.add(ctrNICRestart, 1)
}
