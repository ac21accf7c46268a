// Package sockets provides connection-oriented byte streams over virtual
// networks — the "Sockets" box of the paper's Fig. 1 system architecture.
// By carrying socket traffic over endpoints, conventional client/server
// code leverages the fast communication layer instead of a kernel TCP/IP
// stack.
//
// A Listener owns an endpoint that accepts connection requests by any
// rendezvous (here: endpoint names). Each accepted connection is a pair of
// endpoints with a sliding-window byte stream in each direction; segments
// are bulk Active Messages, acknowledged at the user level by window
// updates riding on the AM replies.
package sockets

import (
	"errors"
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// Handler indices.
const (
	hConnect    = 1 // connection request: args carry client endpoint info
	hConnectAck = 2 // connection accepted: args carry server conn endpoint
	hData       = 3 // stream segment
	hDataAck    = 4 // segment consumed (window update)
	hFin        = 5 // orderly shutdown
	hFinAck     = 6
)

// Errors.
var (
	ErrClosed          = errors.New("sockets: connection closed")
	ErrRefused         = errors.New("sockets: connection refused")
	ErrPeerUnreachable = errors.New("sockets: peer unreachable")
)

// segment size: one MTU-sized bulk message minus headroom.
const segSize = 8192

// window: segments in flight per direction.
const window = 16

// Listener accepts stream connections on a well-known endpoint.
type Listener struct {
	node    *hostos.Node
	bundle  *core.Bundle
	ep      *core.Endpoint
	backlog []*Conn
	key     core.Key
	nextKey uint64
}

// Listen creates a listener on node with the given endpoint key. Clients
// dial its endpoint name.
func Listen(node *hostos.Node, key core.Key) (*Listener, error) {
	b := core.Attach(node)
	ep, err := b.NewEndpoint(key, 256)
	if err != nil {
		return nil, err
	}
	l := &Listener{node: node, bundle: b, ep: ep, key: key, nextKey: uint64(key) << 16}
	ep.SetHandler(hConnect, l.onConnect)
	return l, nil
}

// Name returns the listener's endpoint name for clients to dial.
func (l *Listener) Name() core.EndpointName { return l.ep.Name() }

// onConnect runs when a client dials: create a dedicated connection
// endpoint, map the client, and reply with our name and key.
func (l *Listener) onConnect(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	clientKey := core.Key(args[0])
	clientConn := core.NameFromRaw(int64(args[1]))
	l.nextKey++
	connKey := core.Key(l.nextKey)
	conn, err := newConn(l.node, connKey)
	if err != nil {
		tok.Reply(p, hConnectAck, [4]uint64{0, 1}) // refused
		return
	}
	if err := conn.attachPeer(clientConn, clientKey); err != nil {
		tok.Reply(p, hConnectAck, [4]uint64{0, 1})
		return
	}
	l.backlog = append(l.backlog, conn)
	// Reply carries the connection endpoint's identity; the name is
	// reconstructed from (node, id) by the dialer.
	tok.Reply(p, hConnectAck, [4]uint64{uint64(conn.ep.Name().Raw()), 0, uint64(connKey)})
}

// Accept returns the next established connection, blocking (and serving the
// listening endpoint) until one arrives.
func (l *Listener) Accept(p *sim.Proc) *Conn {
	for len(l.backlog) == 0 {
		l.ep.IdlePoll(p, 5*sim.Microsecond, sim.Never)
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c
}

// Poll services the listening endpoint (for servers multiplexing accept
// with other work).
func (l *Listener) Poll(p *sim.Proc) int { return l.ep.Poll(p) }

// Conn is one end of an established byte-stream connection.
type Conn struct {
	node   *hostos.Node
	bundle *core.Bundle
	ep     *core.Endpoint

	// Receive side: reassembled in-order bytes.
	rbuf     []byte
	nextRseq uint64
	oos      map[uint64][]byte // out-of-order segments

	// Send side.
	nextSseq uint64
	acked    uint64

	peerClosed bool
	closed     bool
	finAcked   bool

	// err latches the first transport-level failure (peer unreachable);
	// every blocking operation surfaces it instead of spinning forever.
	err error

	// Retry shaping: bounced segments are re-sent, up to the Retrier's
	// attempt cap per unacked segment, on a deterministic exponential-backoff
	// schedule gated by a per-connection token budget, so a flapping fabric
	// cannot amplify a window of in-flight segments into a retry storm. poll
	// flushes the parked ones from the blocking loops.
	retry  *reliab.Retrier[uint64]
	budget *reliab.Budget
}

func newConn(node *hostos.Node, key core.Key) (*Conn, error) {
	b := core.Attach(node)
	ep, err := b.NewEndpoint(key, 4)
	if err != nil {
		return nil, err
	}
	c := &Conn{node: node, bundle: b, ep: ep, oos: make(map[uint64][]byte),
		retry:  reliab.NewRetrier[uint64](node.E.Rand()),
		budget: reliab.NewBudget(reliab.BudgetConfig{})}
	ep.SetHandler(hData, c.onData)
	ep.SetHandler(hDataAck, c.onDataAck)
	ep.SetHandler(hFin, c.onFin)
	ep.SetHandler(hFinAck, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) { c.finAcked = true })
	// Segments the fabric hands back (§3.2) are re-sent a bounded number of
	// times; beyond that — or on a permanent nack — the stream is broken and
	// the caller gets ErrPeerUnreachable rather than a hang.
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		switch h {
		case hData:
			send := reliab.Send{DstIdx: dstIdx, H: h, Args: args, Payload: payload}
			if c.retry.Bounce(p.Now(), args[0], reason, c.budget, send) != reliab.Parked {
				c.fail()
			}
		case hFin, hFinAck:
			// The peer is gone; an orderly shutdown is moot. Unblock Close.
			c.finAcked = true
			c.fail()
		default:
			c.fail()
		}
	})
	return c, nil
}

// fail latches the broken-stream error.
func (c *Conn) fail() {
	if c.err == nil {
		c.err = ErrPeerUnreachable
	}
}

// Outstanding reports the retry bookkeeping held — attempt records of
// unacked segments, parked re-sends — for leak invariants: both are zero
// once every segment was acknowledged or the stream was given up.
func (c *Conn) Outstanding() (attempts, parked int) { return c.retry.Outstanding() }

// live reports whether a parked segment is still worth re-sending: the
// stream is neither broken nor closed, and the segment was not acknowledged
// while it waited (its attempt record would be gone).
func (c *Conn) live(s reliab.Send) bool {
	return c.err == nil && !c.closed && c.retry.Attempts(s.Args[0]) > 0
}

// poll services the endpoint and re-sends the parked segments that are due;
// every blocking loop in the connection spins on it.
func (c *Conn) poll(p *sim.Proc) int {
	return c.ep.Poll(p) + c.retry.Flush(p, c.ep, c.live)
}

// Err returns the latched transport failure, if any.
func (c *Conn) Err() error { return c.err }

func (c *Conn) attachPeer(name core.EndpointName, key core.Key) error {
	return c.ep.Map(0, name, key)
}

func (c *Conn) onData(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
	seq := args[0]
	if seq >= c.nextRseq {
		data := append([]byte(nil), payload...)
		c.oos[seq] = data
		for {
			d, ok := c.oos[c.nextRseq]
			if !ok {
				break
			}
			delete(c.oos, c.nextRseq)
			c.rbuf = append(c.rbuf, d...)
			c.nextRseq++
		}
	}
	tok.Reply(p, hDataAck, [4]uint64{seq})
}

func (c *Conn) onDataAck(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
	if args[0] >= c.acked {
		c.acked = args[0] + 1
	}
	c.retry.Forget(args[0])
}

func (c *Conn) onFin(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
	c.peerClosed = true
	tok.Reply(p, hFinAck, [4]uint64{})
}

// Write sends the bytes, blocking until they are accepted into the stream
// (the in-flight window bounds how far the sender may run ahead).
func (c *Conn) Write(p *sim.Proc, data []byte) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	written := 0
	for off := 0; off < len(data); off += segSize {
		end := off + segSize
		if end > len(data) {
			end = len(data)
		}
		for c.nextSseq-c.acked >= window {
			if c.poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
			if c.closed {
				return written, ErrClosed
			}
			if c.err != nil {
				return written, c.err
			}
		}
		seq := c.nextSseq
		c.nextSseq++
		if err := c.ep.RequestBulk(p, 0, hData, data[off:end], [4]uint64{seq}); err != nil {
			return written, err
		}
		written += end - off
	}
	return written, nil
}

// Read returns at least one byte (blocking until data or peer close). A
// zero count with ErrClosed means the stream ended.
func (c *Conn) Read(p *sim.Proc, max int) ([]byte, error) {
	for len(c.rbuf) == 0 {
		if c.peerClosed {
			return nil, ErrClosed
		}
		if c.closed {
			return nil, ErrClosed
		}
		if c.err != nil {
			return nil, c.err
		}
		if c.poll(p) == 0 {
			p.Sleep(5 * sim.Microsecond)
		}
	}
	n := len(c.rbuf)
	if max > 0 && n > max {
		n = max
	}
	out := c.rbuf[:n]
	c.rbuf = c.rbuf[n:]
	return out, nil
}

// ReadFull blocks until exactly n bytes are available.
func (c *Conn) ReadFull(p *sim.Proc, n int) ([]byte, error) {
	var out []byte
	for len(out) < n {
		chunk, err := c.Read(p, n-len(out))
		if err != nil {
			return out, err
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// Drain waits until every written byte has been acknowledged or the stream
// breaks (check Err for the latter).
func (c *Conn) Drain(p *sim.Proc) {
	for c.acked < c.nextSseq && c.err == nil {
		if c.poll(p) == 0 {
			p.Sleep(5 * sim.Microsecond)
		}
	}
}

// Close performs an orderly shutdown: drain, send FIN, release the
// endpoint.
func (c *Conn) Close(p *sim.Proc) error {
	if c.closed {
		return nil
	}
	c.Drain(p)
	// Send FIN and wait for its acknowledgment before tearing the endpoint
	// down, so the shutdown isn't lost in the endpoint free. A broken stream
	// skips the handshake: the peer cannot answer.
	if c.err == nil {
		c.ep.Request(p, 0, hFin, [4]uint64{})
		for !c.finAcked && c.err == nil {
			if c.poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	}
	c.closed = true
	c.bundle.Close(p)
	return c.err
}

// Dial connects to a listener's endpoint name and returns the established
// connection.
func Dial(p *sim.Proc, node *hostos.Node, server core.EndpointName, serverKey core.Key) (*Conn, error) {
	// The dialing side builds its connection endpoint first.
	key := core.Key(uint64(node.ID)<<32 | uint64(node.E.Rand().Int63n(1<<30)))
	conn, err := newConn(node, key)
	if err != nil {
		return nil, err
	}
	// A temporary translation to the listener.
	b := core.Attach(node)
	dialEP, err := b.NewEndpoint(key+1, 4)
	if err != nil {
		return nil, err
	}
	if err := dialEP.Map(0, server, serverKey); err != nil {
		return nil, err
	}
	var reply *[4]uint64
	refused := false
	dialEP.SetHandler(hConnectAck, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		a := args
		reply = &a
	})
	// A connect that cannot be delivered (bad key, dead listener) comes
	// back via the return-to-sender path (§3.2).
	dialEP.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, _, _ int, _ [4]uint64, _ []byte) {
		refused = true
	})
	// Carry our connection endpoint's identity in the request.
	if err := dialEP.Request(p, 0, hConnect, [4]uint64{uint64(key), uint64(conn.ep.Name().Raw())}); err != nil {
		return nil, err
	}
	for reply == nil && !refused {
		dialEP.IdlePoll(p, 5*sim.Microsecond, sim.Never)
	}
	b.Close(p)
	if refused || reply[1] != 0 {
		conn.bundle.Close(p)
		return nil, ErrRefused
	}
	peer := core.NameFromRaw(int64(reply[0]))
	if err := conn.attachPeer(peer, core.Key(reply[2])); err != nil {
		return nil, err
	}
	return conn, nil
}

// String describes the connection for debugging.
func (c *Conn) String() string {
	return fmt.Sprintf("conn(%v rbuf=%d inflight=%d)", c.ep.Name(), len(c.rbuf), c.nextSseq-c.acked)
}
