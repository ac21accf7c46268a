package rpc

import (
	"bytes"
	"errors"
	"testing"

	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// One pool endpoint fanning out to several servers: calls to different
// targets pipeline, results come back to the shared endpoint, and each
// target's identity is preserved.
func TestPoolFanOut(t *testing.T) {
	const nServers = 3
	c := newCluster(t, nServers+1)
	stops := make([]*bool, nServers)
	servers := make([]*Server, nServers)
	for i := 0; i < nServers; i++ {
		s, stop := echoServer(t, c, i)
		// Tag each server so responses are distinguishable.
		id := byte(i)
		s.Register(9, func(p *sim.Proc, args []byte) ([]byte, error) {
			return append([]byte{id}, args...), nil
		})
		servers[i], stops[i] = s, stop
	}
	var outs [nServers][]byte
	var errs [nServers]error
	c.Nodes[nServers].Spawn("pool-client", func(p *sim.Proc) {
		pl, err := NewPool(c.Nodes[nServers], nServers, Options{})
		if err != nil {
			t.Errorf("pool: %v", err)
			return
		}
		for i, s := range servers {
			if err := pl.Add(s.Name(), s.Key()); err != nil || pl.Targets() != i+1 {
				t.Errorf("Add(%d) = %v, %d targets", i, err, pl.Targets())
				return
			}
		}
		pending := make([]PoolPending, nServers)
		for i := 0; i < nServers; i++ {
			pc, err := pl.GoCtx(p, i, 9, []byte{0xaa}, reliab.Ctx{})
			if err != nil {
				t.Errorf("go %d: %v", i, err)
				return
			}
			pending[i] = pc
		}
		for i := range pending {
			outs[i], errs[i] = pending[i].WaitTimeout(p, 0)
		}
		if r, ri, d := pl.Outstanding(); r != 0 || ri != 0 || d != 0 {
			t.Errorf("pool leaked state: %d/%d/%d", r, ri, d)
		}
		for _, s := range stops {
			*s = true
		}
	})
	c.RunFor(2 * sim.Second)
	for i := 0; i < nServers; i++ {
		if errs[i] != nil {
			t.Fatalf("target %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], []byte{byte(i), 0xaa}) {
			t.Fatalf("target %d out = %v", i, outs[i])
		}
	}
}

// A crashed target fails fast with ErrUnreachable while its pool
// neighbors keep answering.
func TestPoolTargetIsolation(t *testing.T) {
	c := newCluster(t, 3)
	s0, stop0 := echoServer(t, c, 0)
	s1, stop1 := echoServer(t, c, 1)
	var aliveOut []byte
	var aliveErr, deadErr error
	c.Nodes[2].Spawn("pool-client", func(p *sim.Proc) {
		pl, err := NewPool(c.Nodes[2], 2, Options{NoBreaker: true})
		if err != nil {
			t.Errorf("pool: %v", err)
			return
		}
		pl.Add(s0.Name(), s0.Key())
		pl.Add(s1.Name(), s1.Key())
		// Warm both targets.
		if _, err := pl.CallCtx(p, 0, 1, []byte{1}, reliab.Ctx{}); err != nil {
			t.Errorf("warm 0: %v", err)
		}
		if _, err := pl.CallCtx(p, 1, 1, []byte{1}, reliab.Ctx{}); err != nil {
			t.Errorf("warm 1: %v", err)
		}
		c.Nodes[0].Crash()
		_, deadErr = pl.CallCtx(p, 0, 1, []byte{2}, reliab.Ctx{Deadline: p.Now().Add(200 * sim.Millisecond)})
		aliveOut, aliveErr = pl.CallCtx(p, 1, 1, []byte{2}, reliab.Ctx{})
		if !pl.targets[0].dead && deadErr == nil {
			t.Error("dead target neither marked dead nor errored")
		}
		*stop0 = true
		*stop1 = true
	})
	c.RunFor(3 * sim.Second)
	if deadErr == nil {
		t.Fatal("call to crashed target succeeded")
	}
	if !errors.Is(deadErr, ErrUnreachable) && !errors.Is(deadErr, ErrTimeout) {
		t.Fatalf("dead target error = %v", deadErr)
	}
	if aliveErr != nil {
		t.Fatalf("alive target: %v", aliveErr)
	}
	if !bytes.Equal(aliveOut, []byte{0xfd}) {
		t.Fatalf("alive out = %v", aliveOut)
	}
}

// Deadlines propagate: an expired context is shed client-side before
// touching the wire.
func TestPoolDeadlineShedAtIssue(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := echoServer(t, c, 0)
	var err error
	c.Nodes[1].Spawn("pool-client", func(p *sim.Proc) {
		pl, e := NewPool(c.Nodes[1], 1, Options{})
		if e != nil {
			t.Errorf("pool: %v", e)
			return
		}
		pl.Add(s.Name(), s.Key())
		p.Sleep(10 * sim.Millisecond)
		_, err = pl.CallCtx(p, 0, 1, []byte{1}, reliab.Ctx{Deadline: p.Now().Add(-sim.Millisecond)})
		*stop = true
	})
	c.RunFor(time1s)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if s.Served != 0 {
		t.Fatalf("expired call reached the server (served=%d)", s.Served)
	}
}

const time1s = sim.Second
