package via

import (
	"bytes"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

func newCluster(t *testing.T, n int) *hostos.Cluster {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	return c
}

func TestSendRecvThroughVI(t *testing.T) {
	c := newCluster(t, 2)
	na := Open(c.Nodes[0])
	nb := Open(c.Nodes[1])
	cqA, cqAr := NewCQ(), NewCQ()
	cqB, cqBr := NewCQ(), NewCQ()
	va, _ := na.CreateVI(cqA, cqAr)
	vb, _ := nb.CreateVI(cqB, cqBr)
	an, ak := va.Addr()
	bn, bk := vb.Addr()
	va.Connect(bn, bk)
	vb.Connect(an, ak)

	src := na.RegisterMemory([]byte("via-payload!"))
	dstBuf := make([]byte, 64)
	dst := nb.RegisterMemory(dstBuf)

	done := false
	c.Nodes[1].Spawn("recv", func(p *sim.Proc) {
		vb.PostRecv(dst)
		for cqBr.entries.Len() == 0 {
			vb.Poll(p)
			p.Sleep(5 * sim.Microsecond)
		}
		comp, _ := cqBr.Poll()
		if !comp.IsRecv || comp.Length != 12 || string(dstBuf[:12]) != "via-payload!" {
			t.Errorf("bad completion: %+v", comp)
		}
		done = true
	})
	c.Nodes[0].Spawn("send", func(p *sim.Proc) {
		if err := va.PostSend(p, src, 12); err != nil {
			t.Errorf("send: %v", err)
		}
		for cqA.entries.Len() == 0 {
			va.Poll(p)
			p.Sleep(5 * sim.Microsecond)
		}
	})
	c.RunFor(sim.Second)
	if !done {
		t.Fatal("receive never completed")
	}
	if !bytes.Equal(dstBuf[:12], []byte("via-payload!")) {
		t.Fatal("payload corrupted")
	}
}

func TestUnregisteredBufferRejected(t *testing.T) {
	c := newCluster(t, 2)
	n := Open(c.Nodes[0])
	vi, _ := n.CreateVI(NewCQ(), NewCQ())
	if err := vi.PostRecv(MemHandle(99)); err != ErrNotReg {
		t.Fatalf("PostRecv err = %v", err)
	}
	var sendErr error
	c.Nodes[0].Spawn("s", func(p *sim.Proc) {
		sendErr = vi.PostSend(p, MemHandle(99), 8)
	})
	c.RunFor(sim.Millisecond)
	if sendErr != ErrNotConnected && sendErr != ErrNotReg {
		t.Fatalf("PostSend err = %v", sendErr)
	}
}

func TestRecvWithoutDescriptorIsErrorCompletion(t *testing.T) {
	c := newCluster(t, 2)
	na := Open(c.Nodes[0])
	nb := Open(c.Nodes[1])
	cqA, cqAr := NewCQ(), NewCQ()
	cqB, cqBr := NewCQ(), NewCQ()
	va, _ := na.CreateVI(cqA, cqAr)
	vb, _ := nb.CreateVI(cqB, cqBr)
	an, ak := va.Addr()
	bn, bk := vb.Addr()
	va.Connect(bn, bk)
	vb.Connect(an, ak)
	src := na.RegisterMemory(make([]byte, 16))

	var comp Completion
	got := false
	c.Nodes[1].Spawn("recv", func(p *sim.Proc) {
		for cqBr.entries.Len() == 0 {
			vb.Poll(p)
			p.Sleep(5 * sim.Microsecond)
		}
		comp, _ = cqBr.Poll()
		got = true
	})
	c.Nodes[0].Spawn("send", func(p *sim.Proc) {
		va.PostSend(p, src, 16)
	})
	c.RunFor(sim.Second)
	if !got {
		t.Fatal("no completion")
	}
	if comp.Length != -1 {
		t.Fatalf("expected error completion, got %+v", comp)
	}
}

func TestSharedCompletionQueue(t *testing.T) {
	// Two VIs at one process share a CQ; completions from both appear there.
	c := newCluster(t, 3)
	hub := Open(c.Nodes[0])
	p1 := Open(c.Nodes[1])
	p2 := Open(c.Nodes[2])
	sharedS, sharedR := NewCQ(), NewCQ()
	vHub1, _ := hub.CreateVI(sharedS, sharedR)
	vHub2, _ := hub.CreateVI(sharedS, sharedR)
	v1, _ := p1.CreateVI(NewCQ(), NewCQ())
	v2, _ := p2.CreateVI(NewCQ(), NewCQ())
	n1, k1 := vHub1.Addr()
	n2, k2 := vHub2.Addr()
	pn1, pk1 := v1.Addr()
	pn2, pk2 := v2.Addr()
	vHub1.Connect(pn1, pk1)
	vHub2.Connect(pn2, pk2)
	v1.Connect(n1, k1)
	v2.Connect(n2, k2)

	b1 := hub.RegisterMemory(make([]byte, 32))
	b2 := hub.RegisterMemory(make([]byte, 32))
	vHub1.PostRecv(b1)
	vHub2.PostRecv(b2)

	got := 0
	c.Nodes[0].Spawn("hub", func(p *sim.Proc) {
		for got < 2 {
			vHub1.Poll(p)
			vHub2.Poll(p)
			for {
				if _, ok := sharedR.Poll(); !ok {
					break
				}
				got++
			}
			p.Sleep(5 * sim.Microsecond)
		}
	})
	for i, v := range []*VI{v1, v2} {
		v := v
		prov := []*NIC{p1, p2}[i]
		c.Nodes[i+1].Spawn("peer", func(p *sim.Proc) {
			h := prov.RegisterMemory([]byte("hello-from-peer"))
			v.PostSend(p, h, 15)
			for v.sendCQ.entries.Len() == 0 {
				v.Poll(p)
				p.Sleep(5 * sim.Microsecond)
			}
		})
	}
	c.RunFor(sim.Second)
	if got != 2 {
		t.Fatalf("shared CQ collected %d completions, want 2", got)
	}
}

func TestFullMeshConnectivity(t *testing.T) {
	const n = 4
	c := newCluster(t, n)
	var nics []*NIC
	for i := 0; i < n; i++ {
		nics = append(nics, Open(c.Nodes[i]))
	}
	vis, recvCQs, err := FullMesh(nics)
	if err != nil {
		t.Fatal(err)
	}
	// n^2 - n VIs total (the paper's point about connection provisioning).
	count := 0
	for i := range vis {
		for j := range vis[i] {
			if vis[i][j] != nil {
				count++
			}
		}
	}
	if count != n*(n-1) {
		t.Fatalf("VIs = %d, want %d", count, n*(n-1))
	}

	// Every pair exchanges one message.
	finished := 0
	for i := 0; i < n; i++ {
		i := i
		c.Nodes[i].Spawn("peer", func(p *sim.Proc) {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				h := nics[i].RegisterMemory(make([]byte, 8))
				vis[i][j].PostRecv(h)
			}
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				h := nics[i].RegisterMemory([]byte{byte(i), byte(j), 0, 0})
				if err := vis[i][j].PostSend(p, h, 4); err != nil {
					t.Errorf("send %d->%d: %v", i, j, err)
				}
			}
			seen := 0
			for seen < n-1 {
				for j := 0; j < n; j++ {
					if j != i {
						vis[i][j].Poll(p)
					}
				}
				for {
					if comp, ok := recvCQs[i].Poll(); ok {
						if comp.Length == 4 {
							seen++
						}
					} else {
						break
					}
				}
				p.Sleep(5 * sim.Microsecond)
			}
			finished++
		})
	}
	c.RunFor(5 * sim.Second)
	if finished != n {
		t.Fatalf("finished = %d/%d", finished, n)
	}
}

// TestBouncedSendCompletesInError: a send to a crashed peer used to vanish
// silently, leaking Pending forever. Now the NI retries it, returns it to
// the sender, and that first return completes the descriptor in error
// (Length == -1) on the send CQ: nothing above the NI re-sends it.
func TestBouncedSendCompletesInError(t *testing.T) {
	c := newCluster(t, 2)
	na := Open(c.Nodes[0])
	nb := Open(c.Nodes[1])
	cqA, cqAr := NewCQ(), NewCQ()
	cqB, cqBr := NewCQ(), NewCQ()
	va, _ := na.CreateVI(cqA, cqAr)
	vb, _ := nb.CreateVI(cqB, cqBr)
	an, ak := va.Addr()
	bn, bk := vb.Addr()
	va.Connect(bn, bk)
	vb.Connect(an, ak)
	src := na.RegisterMemory([]byte("doomed"))

	c.Nodes[1].E.AfterFunc(sim.Millisecond, func() { c.Nodes[1].Crash() })
	var comp Completion
	got := false
	returns := int64(-1) // messages returned to node 0 when the completion arrived
	c.Nodes[0].Spawn("send", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // after the crash
		if err := va.PostSend(p, src, 6); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		for cqA.entries.Len() == 0 {
			va.Poll(p)
			p.Sleep(50 * sim.Microsecond)
		}
		comp, got = cqA.Poll()
		returns = c.Nodes[0].NIC.C.Get("rts.delivered")
	})
	// The return costs the NI retry schedule plus the return-to-sender delay.
	c.RunFor(sim.Second)
	if !got {
		t.Fatal("no send completion arrived")
	}
	if comp.IsRecv || comp.Length != -1 {
		t.Fatalf("bad error completion: %+v", comp)
	}
	if returns != 1 {
		t.Fatalf("error completion after %d returns, want the first", returns)
	}
}
