package rpc

import (
	"testing"

	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// A server node that crashes mid-service must surface as a typed
// ErrUnreachable on the blocked call, never as a hang.
func TestCallAgainstCrashedServerReturnsUnreachable(t *testing.T) {
	c := newCluster(t, 3)
	s, _ := echoServer(t, c, 1)
	var first, second error
	done := false
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		cl, e := NewClient(c.Nodes[0], s.Name(), 77)
		if e != nil {
			t.Errorf("client: %v", e)
			return
		}
		if _, first = cl.Call(p, 1, []byte{1, 2, 3}, 0); first != nil {
			return
		}
		p.Sleep(10 * sim.Millisecond) // let the crash land between calls
		_, second = cl.Call(p, 1, []byte{4, 5, 6}, 0)
		done = true
	})
	c.Nodes[1].E.AfterFunc(5*sim.Millisecond, func() { c.Nodes[1].Crash() })
	c.RunFor(10 * sim.Second)
	if !done {
		t.Fatal("client hung on the crashed server")
	}
	if first != nil {
		t.Fatalf("pre-crash call failed: %v", first)
	}
	if second != ErrUnreachable {
		t.Fatalf("post-crash call = %v, want ErrUnreachable", second)
	}
}

// WaitTimeout bounds an async call even when the transport never gives up.
func TestWaitTimeout(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	// Stop the server's poll loop so calls arrive but are never serviced.
	*stop = true
	var err error
	done := false
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, e := NewClient(c.Nodes[1], s.Name(), 77)
		if e != nil {
			t.Errorf("client: %v", e)
			return
		}
		pc, e := cl.pl.GoCtx(p, 0, 1, []byte{9}, reliab.Ctx{})
		if e != nil {
			t.Errorf("go: %v", e)
			return
		}
		_, err = pc.WaitTimeout(p, 20*sim.Millisecond)
		done = true
	})
	c.RunFor(sim.Second)
	if !done {
		t.Fatal("WaitTimeout never returned")
	}
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
