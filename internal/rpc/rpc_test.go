package rpc

import (
	"bytes"
	"errors"
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

func echoServer(t *testing.T, c *hostos.Cluster, node int) (*Server, *bool) {
	t.Helper()
	s, err := NewServer(c.Nodes[node], 77)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		out := make([]byte, len(args))
		for i, b := range args {
			out[i] = b ^ 0xff
		}
		return out, nil
	})
	s.Register(2, func(p *sim.Proc, args []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	stop := false
	c.Nodes[node].Spawn("rpc-server", func(p *sim.Proc) {
		for !stop {
			if s.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	return s, &stop
}

func TestCallSmall(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	var out []byte
	var err error
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, e := NewClient(c.Nodes[1], s.Name(), 77)
		if e != nil {
			t.Errorf("client: %v", e)
			return
		}
		out, err = cl.Call(p, 1, []byte{1, 2, 3}, 0)
		*stop = true
	})
	c.RunFor(2 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0xfe, 0xfd, 0xfc}) {
		t.Fatalf("out = %v", out)
	}
	if s.Served != 1 {
		t.Fatalf("served = %d", s.Served)
	}
}

func TestCallLargeFragmented(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	args := make([]byte, 50_000) // ~7 fragments each way
	for i := range args {
		args[i] = byte(i * 13)
	}
	var out []byte
	var err error
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		out, err = cl.Call(p, 1, args, 0)
		*stop = true
	})
	c.RunFor(5 * sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(args) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range out {
		if out[i] != args[i]^0xff {
			t.Fatalf("byte %d wrong", i)
		}
	}
}

func TestRemoteError(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	var err error
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		_, err = cl.Call(p, 2, []byte{1}, 0)
		*stop = true
	})
	c.RunFor(2 * sim.Second)
	if err == nil || err.Error() != "rpc: remote error: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestNoSuchProcedure(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	var err error
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		_, err = cl.Call(p, 99, []byte{1}, 0)
		*stop = true
	})
	c.RunFor(2 * sim.Second)
	if err != ErrNoProc {
		t.Fatalf("err = %v, want ErrNoProc", err)
	}
}

func TestUnreachableServer(t *testing.T) {
	c := newCluster(t, 2)
	// No server at all: the call's return-to-sender path must surface
	// ErrUnreachable (wrong key against a never-created endpoint name).
	s, stop := echoServer(t, c, 0)
	var err error
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 9999) // wrong key
		_, err = cl.Call(p, 1, []byte{1}, 0)
		*stop = true
	})
	c.RunFor(3 * sim.Second)
	if err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestCallTimeout(t *testing.T) {
	c := newCluster(t, 2)
	// Server registered but never polled: the call must time out.
	if _, err := NewServer(c.Nodes[0], 77); err != nil {
		t.Fatal(err)
	}
	var err error
	var s *Server
	s, _ = NewServer(c.Nodes[0], 78)
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 78)
		_, err = cl.Call(p, 1, []byte{1}, 50*sim.Millisecond)
	})
	c.RunFor(2 * sim.Second)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestManyClients(t *testing.T) {
	c := newCluster(t, 5)
	s, stop := echoServer(t, c, 0)
	results := make([][]byte, 4)
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		c.Nodes[i+1].Spawn("client", func(p *sim.Proc) {
			cl, _ := NewClient(c.Nodes[i+1], s.Name(), 77)
			for k := 0; k < 5; k++ {
				out, err := cl.Call(p, 1, []byte{byte(i), byte(k)}, 0)
				if err != nil {
					t.Errorf("client %d call %d: %v", i, k, err)
					return
				}
				results[i] = out
			}
			done++
			if done == 4 {
				*stop = true
			}
		})
	}
	c.RunFor(5 * sim.Second)
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	for i, r := range results {
		if len(r) != 2 || r[0] != byte(i)^0xff || r[1] != 4^0xff {
			t.Fatalf("client %d result %v", i, r)
		}
	}
	if s.Served != 20 {
		t.Fatalf("served = %d, want 20", s.Served)
	}
}

// TestClientsGetSlotsInFirstCallOrder: a server maps each new client into
// the lowest unmapped translation slot when it first calls, and a client
// that calls again keeps its slot.
func TestClientsGetSlotsInFirstCallOrder(t *testing.T) {
	c := newCluster(t, 4)
	s, stop := echoServer(t, c, 0)
	first := []int{2, 0, 1} // clients by the order of their first call
	names := make([]core.EndpointName, 3)
	done := 0
	for turn, i := range first {
		node := c.Nodes[i+1]
		cl, err := NewClient(node, s.Name(), 77)
		if err != nil {
			t.Fatal(err)
		}
		names[i] = cl.pl.ep.Name()
		node.Spawn("client", func(p *sim.Proc) {
			p.Sleep(sim.Duration(turn) * 10 * sim.Millisecond)
			calls := 1
			if turn == 0 {
				calls = 2 // the first caller calls again after the others
			}
			for k := 0; k < calls; k++ {
				if _, err := cl.Call(p, 1, []byte{byte(i)}, 0); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
				p.Sleep(50 * sim.Millisecond)
			}
			if done++; done == len(first) {
				*stop = true
			}
		})
	}
	c.RunFor(sim.Second)
	if done != len(first) || s.Served != 4 {
		t.Fatalf("%d clients done, %d calls served; want 3 and 4", done, s.Served)
	}
	for slot, i := range first {
		if got, ok := s.ep.SlotOf(names[i]); !ok || got != slot {
			t.Fatalf("slot %d maps %v, want client %d (%v)", slot, got, i, names[i])
		}
	}
	if s.slots != 3 || s.ep.TranslationValid(3) {
		t.Fatalf("%d slots mapped, want 3: a repeat caller keeps its slot", s.slots)
	}
}

func TestEventDrivenServe(t *testing.T) {
	c := newCluster(t, 2)
	s, err := NewServer(c.Nodes[0], 77)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	stop := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		s.Serve(p, func() bool { return stop })
	})
	var out []byte
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		out, _ = cl.Call(p, 1, []byte("evt"), 0)
		stop = true
	})
	c.RunFor(3 * sim.Second)
	if string(out) != "evt" {
		t.Fatalf("out = %q", out)
	}
}
