package sockets

import (
	"bytes"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

func newCluster(t *testing.T, n int) *hostos.Cluster {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	return c
}

func TestConnectSendReceive(t *testing.T) {
	c := newCluster(t, 2)
	l, err := Listen(c.Nodes[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	serverDone := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		b, err := conn.ReadFull(p, 11)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = b
		conn.Write(p, []byte("pong"))
		conn.Drain(p)
		serverDone = true
	})
	var reply []byte
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		conn, err := Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		conn.Write(p, []byte("hello world"))
		reply, _ = conn.ReadFull(p, 4)
		conn.Close(p)
	})
	c.RunFor(2 * sim.Second)
	if string(got) != "hello world" || string(reply) != "pong" {
		t.Fatalf("got %q reply %q", got, reply)
	}
	if !serverDone {
		t.Fatal("server did not finish")
	}
}

func TestLargeStreamIntegrity(t *testing.T) {
	c := newCluster(t, 2)
	l, _ := Listen(c.Nodes[0], 100)
	const total = 300_000 // ~37 segments, exercises the window
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i*131 + i>>8)
	}
	var got []byte
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		b, err := conn.ReadFull(p, total)
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = b
	})
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		conn, err := Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if n, err := conn.Write(p, src); err != nil || n != total {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		conn.Drain(p)
	})
	c.RunFor(5 * sim.Second)
	if !bytes.Equal(got, src) {
		t.Fatalf("stream corrupted: got %d bytes", len(got))
	}
}

func TestMultipleConnectionsOneListener(t *testing.T) {
	c := newCluster(t, 4)
	l, _ := Listen(c.Nodes[0], 100)
	const clients = 3
	served := 0
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for i := 0; i < clients; i++ {
			conn := l.Accept(p)
			c.Nodes[0].Spawn("worker", func(q *sim.Proc) {
				b, err := conn.ReadFull(q, 1)
				if err != nil {
					return
				}
				conn.Write(q, []byte{b[0] + 1})
				conn.Drain(q)
				served++
			})
		}
	})
	results := make([]byte, clients)
	for i := 0; i < clients; i++ {
		i := i
		c.Nodes[i+1].Spawn("client", func(p *sim.Proc) {
			conn, err := Dial(p, c.Nodes[i+1], l.Name(), 100)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			conn.Write(p, []byte{byte(10 * (i + 1))})
			b, _ := conn.ReadFull(p, 1)
			results[i] = b[0]
			conn.Close(p)
		})
	}
	c.RunFor(3 * sim.Second)
	for i := 0; i < clients; i++ {
		if results[i] != byte(10*(i+1)+1) {
			t.Fatalf("client %d got %d", i, results[i])
		}
	}
	if served != clients {
		t.Fatalf("served = %d", served)
	}
}

func TestCloseSignalsPeer(t *testing.T) {
	c := newCluster(t, 2)
	l, _ := Listen(c.Nodes[0], 100)
	var readErr error
	done := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		// First read gets data; the next read must report closure.
		conn.ReadFull(p, 3)
		_, readErr = conn.Read(p, 10)
		done = true
	})
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		conn, err := Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			return
		}
		conn.Write(p, []byte("bye"))
		conn.Close(p)
	})
	c.RunFor(2 * sim.Second)
	if !done {
		t.Fatal("server read never returned")
	}
	if readErr != ErrClosed {
		t.Fatalf("read after close = %v, want ErrClosed", readErr)
	}
}

func TestDialWrongKeyRefused(t *testing.T) {
	c := newCluster(t, 2)
	l, _ := Listen(c.Nodes[0], 100)
	var err error
	done := false
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		_, err = Dial(p, c.Nodes[1], l.Name(), 999) // wrong key
		done = true
	})
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for !done {
			l.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.RunFor(2 * sim.Second)
	if !done {
		t.Fatal("dial hung")
	}
	if err == nil {
		t.Fatal("dial with wrong key succeeded")
	}
}

func TestNameRawRoundTrip(t *testing.T) {
	c := newCluster(t, 3)
	b := core.Attach(c.Nodes[2])
	ep, _ := b.NewEndpoint(5, 2)
	n := ep.Name()
	if core.NameFromRaw(n.Raw()) != n {
		t.Fatalf("raw round trip failed: %v", n)
	}
}

func TestWindowLimitsInflightSegments(t *testing.T) {
	// With an unresponsive peer (accepted but never polled), the sender may
	// run at most `window` segments ahead and then must block in Write
	// rather than buffering unboundedly.
	c := newCluster(t, 2)
	l, _ := Listen(c.Nodes[0], 100)
	accepted := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		l.Accept(p)
		accepted = true
		// Never poll the connection: no handler runs, no acks flow.
	})
	var cc *Conn
	wrote := -1
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		conn, err := Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			return
		}
		cc = conn
		n, _ := conn.Write(p, make([]byte, 64*8192)) // blocks at the window
		wrote = n
	})
	c.RunFor(2 * sim.Second)
	if !accepted || cc == nil {
		t.Fatal("setup failed")
	}
	if wrote != -1 {
		t.Fatalf("Write returned (%d) despite an unresponsive peer", wrote)
	}
	if inflight := cc.nextSseq - cc.acked; inflight != window {
		t.Fatalf("in-flight = %d, want exactly the window %d", inflight, window)
	}
}

func TestInterleavedBidirectionalStreams(t *testing.T) {
	c := newCluster(t, 2)
	l, _ := Listen(c.Nodes[0], 100)
	const n = 120_000
	okS, okC := false, false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		// Bidirectional: send half, read everything, send the rest.
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i ^ 0x55)
		}
		conn.Write(p, out[:n/2])
		in, err := conn.ReadFull(p, n)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		for i := range in {
			if in[i] != byte(i*3) {
				t.Errorf("server corrupt @%d", i)
				return
			}
		}
		conn.Write(p, out[n/2:])
		conn.Drain(p)
		okS = true
	})
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		conn, err := Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			return
		}
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(i * 3)
		}
		conn.Write(p, out)
		in, err := conn.ReadFull(p, n)
		if err != nil {
			t.Errorf("client read: %v", err)
			return
		}
		for i := range in {
			if in[i] != byte(i^0x55) {
				t.Errorf("client corrupt @%d", i)
				return
			}
		}
		okC = true
	})
	c.RunFor(5 * sim.Second)
	if !okS || !okC {
		t.Fatalf("server=%v client=%v", okS, okC)
	}
}
