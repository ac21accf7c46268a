package sockets

import (
	"testing"

	"virtnet/internal/sim"
)

// A peer node that crashes mid-stream must break the connection with a typed
// ErrPeerUnreachable on every blocking operation — never a hang.
func TestCrashedPeerBreaksStream(t *testing.T) {
	c := newCluster(t, 3)
	l, err := Listen(c.Nodes[1], 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		for {
			if _, err := conn.Read(p, 0); err != nil {
				return
			}
		}
	})
	var writeErr, readErr, closeErr error
	var conn *Conn
	done := false
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		var err error
		conn, err = Dial(p, c.Nodes[0], l.Name(), 100)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		msg := make([]byte, 4096)
		for {
			if _, writeErr = conn.Write(p, msg); writeErr != nil {
				break
			}
			conn.Drain(p)
			if writeErr = conn.Err(); writeErr != nil {
				break
			}
			p.Sleep(100 * sim.Microsecond)
		}
		_, readErr = conn.Read(p, 0)
		closeErr = conn.Close(p)
		done = true
	})
	c.Nodes[1].E.AfterFunc(2*sim.Millisecond, func() { c.Nodes[1].Crash() })
	c.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("client hung on the crashed peer")
	}
	if writeErr != ErrPeerUnreachable {
		t.Fatalf("write error = %v, want ErrPeerUnreachable", writeErr)
	}
	if readErr != ErrPeerUnreachable {
		t.Fatalf("read error = %v, want ErrPeerUnreachable", readErr)
	}
	if closeErr != ErrPeerUnreachable {
		t.Fatalf("close error = %v, want ErrPeerUnreachable", closeErr)
	}
	if attempts, parked := conn.Outstanding(); attempts != 0 || parked != 0 {
		t.Fatalf("retry bookkeeping leaked: attempts=%d parked=%d", attempts, parked)
	}
}

// Transient outages shorter than the reissue budget must NOT break the
// stream: the bounded re-send rides out a firmware reboot transparently.
func TestStreamSurvivesFirmwareReboot(t *testing.T) {
	c := newCluster(t, 2)
	l, err := Listen(c.Nodes[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	const total = 64 * 1024
	var got int
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		for got < total {
			b, err := conn.Read(p, 0)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			got += len(b)
		}
	})
	var clientErr error
	var conn *Conn
	done := false
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		var err error
		conn, err = Dial(p, c.Nodes[1], l.Name(), 100)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		msg := make([]byte, 8192)
		for sent := 0; sent < total; sent += len(msg) {
			if _, clientErr = conn.Write(p, msg); clientErr != nil {
				return
			}
		}
		conn.Drain(p)
		clientErr = conn.Err()
		done = true
	})
	c.Nodes[0].E.AfterFunc(sim.Millisecond, func() { c.Nodes[0].NIC.Reboot(2 * sim.Millisecond) })
	c.RunFor(10 * sim.Second)
	if !done || clientErr != nil {
		t.Fatalf("stream broke across a benign reboot: done=%v err=%v", done, clientErr)
	}
	if got != total {
		t.Fatalf("server received %d/%d bytes", got, total)
	}
	if attempts, parked := conn.Outstanding(); attempts != 0 || parked != 0 {
		t.Fatalf("retry bookkeeping leaked: attempts=%d parked=%d", attempts, parked)
	}
}
