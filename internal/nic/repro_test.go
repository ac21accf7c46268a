package nic

import (
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

// TestExactlyOnceAfterReturn pins a quick.Check input where a 36% drop rate
// makes one message exhaust MaxRetries: the NIC returns it to the sender,
// the sender re-posts it with the same MsgID, and end-to-end suppression
// still delivers it to the user exactly once.
func TestExactlyOnceAfterReturn(t *testing.T) {
	seed := int64(971178614083452351)
	n := int(uint8(0xfe)%20) + 1
	drop := float64(uint8(0x24)%40) / 100.0
	e := sim.NewEngine(seed)
	ncfg := netsim.DefaultConfig()
	ncfg.DropProb = drop
	net := netsim.New(e, ncfg, 2)
	cfg := DefaultConfig()
	n0 := New(e, net, 0, cfg)
	n1 := New(e, net, 1, cfg)
	n0.SetDriver(&fakeDriver{n: n0})
	n1.SetDriver(&fakeDriver{n: n1})
	src := NewEndpointImage(1, 0, cfg.RecvQDepth)
	src.Key = 1
	n0.Register(src)
	dst := NewEndpointImage(2, 1, cfg.RecvQDepth)
	dst.Key = 2
	n1.Register(dst)
	n0.SubmitCmd(&DriverCmd{Op: OpLoad, EP: src, Frame: 0})
	n1.SubmitCmd(&DriverCmd{Op: OpLoad, EP: dst, Frame: 0})
	e.RunFor(sim.Millisecond)
	for i := 0; i < n; i++ {
		src.SendQ.Push(&SendDesc{SrcEP: 1, DstNI: 1, DstEP: 2, Key: 2, Handler: 1, Args: [4]uint64{uint64(i)}, MsgID: uint64(i + 1)})
	}
	n0.PostSend()
	got := map[uint64]int{}
	returns := 0
	for step := 0; step < 4000 && len(got) < n; step++ {
		e.RunFor(sim.Millisecond)
		for {
			m, _ := dst.RecvQ.Pop()
			if m == nil {
				break
			}
			got[m.Args[0]]++
		}
		for {
			m, ok := src.PopRecv(e.Now())
			if !ok {
				break
			}
			if m.IsReturn {
				returns++
				src.SendQ.Push(&SendDesc{SrcEP: 1, DstNI: 1, DstEP: 2, Key: 2, Handler: 1, Args: m.Args, MsgID: m.MsgID})
				n0.PostSend()
			}
		}
	}
	defer e.Shutdown()
	if returns == 0 {
		t.Log("note: input no longer produces a return-to-sender")
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d (returns %d): %v", len(got), n, returns, got)
	}
	for k, c := range got {
		if c != 1 {
			t.Fatalf("msg %d delivered %d times", k, c)
		}
	}
}
