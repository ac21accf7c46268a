// Package gam implements the baseline against which the paper measures the
// cost of virtualization: a first-generation Active Messages layer (GAM,
// "Generic Active Messages") with a single endpoint per node, direct
// virtual-node addressing, and none of the §3 enhancements — no opaque
// naming or protection keys, no delivery/error model (the interconnect is
// assumed perfectly reliable), and no thread integration. The NI firmware
// is correspondingly leaner: no transport acknowledgments, timers, or
// endpoint multiplexing, which is why its small-message gap is less than
// half that of virtual networks (Fig. 3).
package gam

import (
	"errors"
	"fmt"

	"virtnet/internal/container"
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// NumHandlers is the handler table size per node.
const NumHandlers = 64

// Handler is a GAM handler; request handlers may reply once via the token.
type Handler func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte)

// The GAM cost model, calibrated to the first-generation layer's published
// LogP numbers (smaller Os, larger Or than virtual networks; gap ~5.8 us;
// 38 MB/s bulk bandwidth at 8 KB). Nothing varies it.
const (
	osShort = sim.Duration(2.9 * 1000) // host: write send descriptor (small)
	orShort = sim.Duration(4.1 * 1000) // host: read message + dispatch (small)
	// osReply is the host cost to write a short reply descriptor. It is
	// zero: the calibration never set it, and results_logp.txt's GAM row
	// (RTT ratio x1.22 against the paper's x1.23) was calibrated with a
	// free reply post.
	osReply  = sim.Duration(0)
	osBulk   = sim.Duration(3.6 * 1000)
	orBulk   = sim.Duration(4.4 * 1000)
	orReply  = sim.Duration(1.3 * 1000) // host: consume a short credit-returning reply
	pollCost = sim.Duration(0.5 * 1000) // host: poll the (always resident) endpoint

	sendCritical   = sim.Duration(1.2 * 1000) // NI: latency-path send processing
	sendPost       = sim.Duration(1.6 * 1000) // NI: post-forward occupancy
	recvCritical   = sim.Duration(1.0 * 1000) // NI: latency-path receive processing
	recvPost       = sim.Duration(2.0 * 1000) // NI: post-deposit occupancy
	recvExtra      = sim.Duration(33 * 1000)  // NI: unpipelined bulk descriptor handling
	deliverLatency = sim.Duration(4.5 * 1000) // deposit-to-host-visibility (word-by-word PIO reads)

	dmaSetup             = 1 * sim.Microsecond
	sbusReadBps  float64 = 54e6
	sbusWriteBps float64 = 46.8e6

	mtu         = 8192
	headerBytes = 32
	queueDepth  = 64 // per-node receive queue depth
	credits     = 16 // outstanding requests per destination
)

// ErrPayloadSize is returned for payloads over the MTU.
var ErrPayloadSize = errors.New("gam: payload exceeds MTU")

type msg struct {
	src     int
	dst     int
	handler int
	isReply bool
	args    [4]uint64
	payload []byte
}

// Node is one GAM endpoint: exactly one per host, always "resident".
type Node struct {
	w        *World
	id       int
	handlers [NumHandlers]Handler
	sendq    container.Deque[*msg]
	recvq    container.Deque[*msg]
	inbound  container.Deque[*msg]
	credits  []int
	idle     *sim.Cond
	stopped  bool
	// pendingDeposit counts messages scheduled for visibility.
	pendingDeposit int
}

// World is a GAM parallel program instance spanning all hosts of a network.
type World struct {
	e     *sim.Engine
	net   *netsim.Network
	nodes []*Node
}

// New builds the GAM layer over net, one node per host.
func New(e *sim.Engine, net *netsim.Network) *World {
	w := &World{e: e, net: net}
	n := net.NumHosts()
	for i := 0; i < n; i++ {
		nd := &Node{
			w:       w,
			id:      i,
			credits: make([]int, n),
			idle:    new(sim.Cond),
		}
		for j := range nd.credits {
			nd.credits[j] = credits
		}
		w.nodes = append(w.nodes, nd)
		id := netsim.NodeID(i)
		net.Attach(id, nd.fromNetwork)
		e.Spawn(fmt.Sprintf("gam%d", i), nd.loop)
	}
	return w
}

// Node returns node i's endpoint.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// Stop halts all NI loops.
func (w *World) Stop() {
	for _, n := range w.nodes {
		n.stopped = true
		n.idle.Signal()
	}
}

// SetHandler installs h at index i.
func (n *Node) SetHandler(i int, h Handler) { n.handlers[i] = h }

// Request sends a short request to node dst, handler h. It blocks (polling)
// while out of credits.
func (n *Node) Request(p *sim.Proc, dst, h int, args [4]uint64) error {
	return n.send(p, dst, h, args, nil, false)
}

// RequestBulk sends a request with payload (<= MTU).
func (n *Node) RequestBulk(p *sim.Proc, dst, h int, payload []byte, args [4]uint64) error {
	return n.send(p, dst, h, args, payload, false)
}

func (n *Node) send(p *sim.Proc, dst, h int, args [4]uint64, payload []byte, isReply bool) error {
	if len(payload) > mtu {
		return ErrPayloadSize
	}
	if !isReply {
		for n.credits[dst] == 0 {
			if n.Poll(p) == 0 {
				p.Sleep(pollCost)
			}
		}
		n.credits[dst]--
	}
	cost := osShort
	if isReply {
		cost = osReply
	}
	if len(payload) > 0 {
		cost = osBulk
	}
	p.Sleep(cost)
	n.sendq.Push(&msg{src: n.id, dst: dst, handler: h, isReply: isReply, args: args, payload: payload})
	n.idle.Signal()
	return nil
}

// Token lets a request handler reply.
type Token struct {
	n       *Node
	src     int
	replied bool
}

// Reply sends a short reply.
func (t *Token) Reply(p *sim.Proc, h int, args [4]uint64) error {
	return t.replyImpl(p, h, args, nil)
}

// ReplyBulk sends a reply with payload.
func (t *Token) ReplyBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error {
	return t.replyImpl(p, h, args, payload)
}

func (t *Token) replyImpl(p *sim.Proc, h int, args [4]uint64, payload []byte) error {
	if t.replied {
		return errors.New("gam: handler replied twice")
	}
	t.replied = true
	return t.n.send(p, t.src, h, args, payload, true)
}

// Poll processes pending messages, returning how many handlers ran.
func (n *Node) Poll(p *sim.Proc) int {
	p.Sleep(pollCost)
	k := 0
	for {
		m, ok := n.recvq.Pop()
		if !ok {
			return k
		}
		k++
		cost := orShort
		if m.isReply {
			cost = orReply
		}
		if len(m.payload) > 0 {
			cost = orBulk
		}
		p.Sleep(cost)
		if m.isReply {
			n.credits[m.src]++
		}
		if h := n.handlers[m.handler]; h != nil {
			tok := &Token{n: n, src: m.src, replied: m.isReply}
			h(p, tok, m.args, m.payload)
		}
	}
}

func (n *Node) fromNetwork(pkt *netsim.Packet) {
	n.inbound.Push(pkt.Payload.(*msg))
	n.idle.Signal()
}

// loop is the lean GAM firmware: no acks, no retransmission, no endpoint
// scheduling — just move packets.
func (n *Node) loop(p *sim.Proc) {
	for !n.stopped {
		switch {
		case n.inbound.Len() > 0:
			m, _ := n.inbound.Pop()
			p.Sleep(recvCritical)
			if len(m.payload) > 0 {
				p.Sleep(recvExtra + dmaSetup + dmaTime(len(m.payload), sbusWriteBps))
			}
			// GAM assumes the programmer's credits prevent overruns; a
			// queue overflow silently drops.
			if n.recvq.Len()+n.pendingDeposit < queueDepth {
				n.pendingDeposit++
				n.w.e.AfterFunc(deliverLatency, func() {
					n.pendingDeposit--
					n.recvq.Push(m)
				})
			}
			p.Sleep(recvPost)
		case n.sendq.Len() > 0:
			m, _ := n.sendq.Pop()
			if len(m.payload) > 0 {
				p.Sleep(dmaSetup + dmaTime(len(m.payload), sbusReadBps))
			}
			p.Sleep(sendCritical)
			n.w.net.Send(&netsim.Packet{
				Src:     netsim.NodeID(n.id),
				Dst:     netsim.NodeID(m.dst),
				Size:    headerBytes + len(m.payload),
				Payload: m,
			}, 0)
			p.Sleep(sendPost)
		default:
			n.idle.Wait(p)
		}
	}
}

func dmaTime(bytes int, bps float64) sim.Duration {
	return sim.Duration(float64(bytes) * 1e9 / bps)
}
