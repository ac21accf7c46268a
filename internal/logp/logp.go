// Package logp measures the LogP parameters of a communication layer using
// the method of Culler, Liu, Martin & Yoshikawa ("LogP Performance
// Assessment of Fast Network Interfaces"): the send and receive overheads
// Os and Or are the host-processor time writing/reading a message, L
// accumulates the remaining end-to-end time (L = RTT/2 - Os - Or), and the
// gap g is the steady-state time per message through the rate-limiting
// stage, measured by issuing a long burst. It reproduces Fig. 3 of the
// paper for both virtual networks (AM) and the first-generation layer (GAM).
package logp

import (
	"virtnet/internal/core"
	"virtnet/internal/gam"
	"virtnet/internal/sim"
)

// Replier is what a request handler uses to reply; both core.Token and
// gam.Token satisfy it.
type Replier interface {
	Reply(p *sim.Proc, h int, args [4]uint64) error
	ReplyBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error
}

// HandlerFunc is a layer-independent handler.
type HandlerFunc func(p *sim.Proc, rep Replier, args [4]uint64, payload []byte)

// Station abstracts one side of a point-to-point measurement.
type Station interface {
	Request(p *sim.Proc, h int, args [4]uint64) error
	RequestBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error
	Poll(p *sim.Proc) int
	SetHandler(i int, h HandlerFunc)
}

// AMStation adapts a virtual-network endpoint (requests go to translation
// table slot Idx).
type AMStation struct {
	EP  *core.Endpoint
	Idx int
}

func (s AMStation) Request(p *sim.Proc, h int, args [4]uint64) error {
	return s.EP.Request(p, s.Idx, h, args)
}
func (s AMStation) RequestBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error {
	return s.EP.RequestBulk(p, s.Idx, h, payload, args)
}
func (s AMStation) Poll(p *sim.Proc) int { return s.EP.Poll(p) }
func (s AMStation) SetHandler(i int, h HandlerFunc) {
	s.EP.SetHandler(i, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
		h(p, tok, args, payload)
	})
}

// GAMStation adapts a GAM node (requests go to node Dst).
type GAMStation struct {
	N   *gam.Node
	Dst int
}

func (s GAMStation) Request(p *sim.Proc, h int, args [4]uint64) error {
	return s.N.Request(p, s.Dst, h, args)
}
func (s GAMStation) RequestBulk(p *sim.Proc, h int, payload []byte, args [4]uint64) error {
	return s.N.RequestBulk(p, s.Dst, h, payload, args)
}
func (s GAMStation) Poll(p *sim.Proc) int { return s.N.Poll(p) }
func (s GAMStation) SetHandler(i int, h HandlerFunc) {
	s.N.SetHandler(i, func(p *sim.Proc, tok *gam.Token, args [4]uint64, payload []byte) {
		h(p, tok, args, payload)
	})
}

// Handler indices used by the harness.
const (
	hEcho  = 1 // server: reply with hReply
	hReply = 2 // client: reply arrival
	hSink  = 3 // server: reply with a small ack (bandwidth test)
)

// Result holds the LogP characterization of a layer (all microseconds when
// printed; stored as durations).
type Result struct {
	Os  sim.Duration
	Or  sim.Duration
	L   sim.Duration
	G   sim.Duration
	RTT sim.Duration
}

// Measure runs the LogP microbenchmarks between client and server stations
// on engine e. The engine is advanced as needed; both stations must already
// be addressable to each other.
func Measure(e *sim.Engine, client, server Station, iters int) Result {
	var res Result
	replies := 0
	// The server handler times its own reply issue so the harness can
	// separate Or (receive overhead) from the reply's send overhead.
	var replyCost sim.Duration
	server.SetHandler(hEcho, func(p *sim.Proc, rep Replier, args [4]uint64, _ []byte) {
		r0 := p.Now()
		rep.Reply(p, hReply, args)
		replyCost += p.Now().Sub(r0)
	})
	client.SetHandler(hReply, func(p *sim.Proc, rep Replier, args [4]uint64, _ []byte) {
		replies++
	})

	serverStop := false
	var srvBusy sim.Duration
	srvHandled := 0
	e.Spawn("logp-server", func(p *sim.Proc) {
		for !serverStop {
			t0 := p.Now()
			k := server.Poll(p)
			if k > 0 {
				srvBusy += p.Now().Sub(t0)
				srvHandled += k
			} else {
				p.Sleep(200 * sim.Nanosecond)
			}
		}
	})

	runClient(e, "logp-client", &serverStop, func(p *sim.Proc) {
		// Warm-up: fault the endpoints resident and fill caches.
		for w := 0; w < 3; w++ {
			target := replies + 1
			client.Request(p, hEcho, [4]uint64{})
			for replies < target {
				client.Poll(p)
				p.Sleep(200 * sim.Nanosecond)
			}
		}
		srvBusy, srvHandled, replyCost = 0, 0, 0

		// Os and RTT: ping-pong, timing the request call and the round trip.
		var osSum, rttSum sim.Duration
		for i := 0; i < iters; i++ {
			target := replies + 1
			t0 := p.Now()
			client.Request(p, hEcho, [4]uint64{uint64(i)})
			t1 := p.Now()
			osSum += t1.Sub(t0)
			awaitCount(p, client, &replies, target)
			rttSum += p.Now().Sub(t0)
		}
		res.Os = osSum / sim.Duration(iters)
		res.RTT = rttSum / sim.Duration(iters)
		// Or: server host time per incoming request, excluding the reply
		// issue it performs inside the handler.
		if srvHandled > 0 {
			res.Or = (srvBusy - replyCost) / sim.Duration(srvHandled)
		}
		res.L = res.RTT/2 - res.Os - res.Or

		// g: long burst of requests; steady-state time per message.
		burst := 8 * iters
		start := p.Now()
		target := replies + burst
		for i := 0; i < burst; i++ {
			client.Request(p, hEcho, [4]uint64{uint64(i)})
		}
		awaitCount(p, client, &replies, target)
		res.G = p.Now().Sub(start) / sim.Duration(burst)
	})
	return res
}

// Bandwidth measures delivered one-way bandwidth (MB/s, 1 MB = 1e6 B) for
// messages of the given payload size, streaming count messages.
func Bandwidth(e *sim.Engine, client, server Station, size, count int) float64 {
	acks := 0
	server.SetHandler(hSink, func(p *sim.Proc, rep Replier, args [4]uint64, _ []byte) {
		rep.Reply(p, hReply, args)
	})
	client.SetHandler(hReply, func(p *sim.Proc, rep Replier, args [4]uint64, _ []byte) {
		acks++
	})
	serverStop := false
	spinServer(e, "bw-server", server, &serverStop)
	var mbps float64
	runClient(e, "bw-client", &serverStop, func(p *sim.Proc) {
		payload := make([]byte, size)
		// Warm-up.
		client.RequestBulk(p, hSink, payload, [4]uint64{})
		for acks < 1 {
			client.Poll(p)
			p.Sleep(sim.Microsecond)
		}
		start := p.Now()
		target := acks + count
		for i := 0; i < count; i++ {
			client.RequestBulk(p, hSink, payload, [4]uint64{})
		}
		awaitCount(p, client, &acks, target)
		elapsed := p.Now().Sub(start).Seconds()
		mbps = float64(size) * float64(count) / elapsed / 1e6
	})
	return mbps
}

// RTTBulk measures the mean round-trip time, over 10 exchanges after one
// warm-up, for an n-byte request echoed with an n-byte reply (the Fig. 4
// latency line: time = 0.1112 n + 61.02 us on the paper's hardware).
func RTTBulk(e *sim.Engine, client, server Station, size int) sim.Duration {
	const iters = 10
	replies := 0
	server.SetHandler(hEcho, func(p *sim.Proc, rep Replier, args [4]uint64, payload []byte) {
		rep.ReplyBulk(p, hReply, payload, args)
	})
	client.SetHandler(hReply, func(p *sim.Proc, rep Replier, args [4]uint64, _ []byte) {
		replies++
	})
	serverStop := false
	spinServer(e, "rtt-server", server, &serverStop)
	var rtt sim.Duration
	runClient(e, "rtt-client", &serverStop, func(p *sim.Proc) {
		payload := make([]byte, size)
		var sum sim.Duration
		for i := 0; i < iters+1; i++ {
			target := replies + 1
			t0 := p.Now()
			client.RequestBulk(p, hEcho, payload, [4]uint64{})
			awaitCount(p, client, &replies, target)
			if i > 0 { // skip warm-up iteration
				sum += p.Now().Sub(t0)
			}
		}
		rtt = sum / sim.Duration(iters)
	})
	return rtt
}

// spinServer spawns a server proc that polls until *stop, sleeping 200 ns
// after each poll that found nothing.
func spinServer(e *sim.Engine, name string, server Station, stop *bool) {
	e.Spawn(name, func(p *sim.Proc) {
		for !*stop {
			if server.Poll(p) == 0 {
				p.Sleep(200 * sim.Nanosecond)
			}
		}
	})
}

// runClient spawns body as the client proc and advances e in 10 ms steps
// until it returns; its return also sets *serverStop.
func runClient(e *sim.Engine, name string, serverStop *bool, body func(p *sim.Proc)) {
	done := false
	e.Spawn(name, func(p *sim.Proc) {
		defer func() { done = true; *serverStop = true }()
		body(p)
	})
	for !done {
		e.RunFor(10 * sim.Millisecond)
	}
}

// awaitCount polls the client until the counter its reply handler bumps
// reaches target, sleeping 200 ns after each poll that found nothing.
func awaitCount(p *sim.Proc, client Station, n *int, target int) {
	for *n < target {
		if client.Poll(p) == 0 {
			p.Sleep(200 * sim.Nanosecond)
		}
	}
}
