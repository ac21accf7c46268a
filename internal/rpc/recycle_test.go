package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime/debug"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// Procedures of recycleServer, one per way a server retires a call record.
const (
	procEcho  = 1 // the result is the args: the record waits for the acks
	procEmpty = 2 // no result: the record is free at once
	procFlip  = 3 // a fresh result: the record is free at once
)

// recycleServer serves the three procedures on node srv of c until *stop.
func recycleServer(t *testing.T, c *hostos.Cluster, srv int) (*Server, *bool) {
	t.Helper()
	s, err := NewServer(c.Nodes[srv], 77)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(procEcho, func(_ *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	s.Register(procEmpty, func(*sim.Proc, []byte) ([]byte, error) { return nil, nil })
	s.Register(procFlip, func(_ *sim.Proc, args []byte) ([]byte, error) {
		out := make([]byte, len(args))
		for i, b := range args {
			out[i] = ^b
		}
		return out, nil
	})
	stop := new(bool)
	c.Nodes[srv].Spawn("rpc-server", func(p *sim.Proc) { s.Serve(p, func() bool { return *stop }) })
	return s, stop
}

// raceBuild reports whether the test binary runs under the race detector,
// whose instrumentation allocates on its own.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSteadyStateCallsAllocNothing pins a warm call at zero allocations
// above the message path, on one shard and across two: per cycle a
// blocking Client.Call of an echo — whose result, handed to the caller, is
// the cycle's one allocation — and a GoCtx of an empty-result procedure
// harvested by TryWait. The call records, wire and assembly buffers, the
// pending handle and the cross-shard crossings all come back from free
// lists.
func TestSteadyStateCallsAllocNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector allocates")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := hostos.NewShardedCluster(3, 10, shards, hostos.DefaultClusterConfig())
			defer c.Shutdown()
			const srv, cli = 0, 5 // other leaves; other shards when there are two
			if (c.Fab.ShardOf(srv) != c.Fab.ShardOf(cli)) != (shards > 1) {
				t.Fatal("server and client must sit on different shards exactly when there are two")
			}
			s, stop := recycleServer(t, c, srv)
			defer func() { *stop = true }()
			cl, err := NewClient(c.Nodes[cli], s.Name(), 77)
			if err != nil {
				t.Fatal(err)
			}
			args := make([]byte, 64)
			cycles := 0
			const period = 500 * sim.Microsecond
			c.Nodes[cli].Spawn("client", func(p *sim.Proc) {
				for k := uint64(0); ; k++ {
					binary.LittleEndian.PutUint64(args, k)
					if res, err := cl.Call(p, procEcho, args, 0); err != nil || !bytes.Equal(res, args) {
						t.Errorf("call %d: %v, %d bytes back", k, err, len(res))
						return
					}
					pc, err := cl.pl.GoCtx(p, 0, procEmpty, args, reliab.Ctx{})
					if err != nil {
						t.Errorf("go %d: %v", k, err)
						return
					}
					for {
						cl.Poll(p)
						if res, done, err := pc.TryWait(p); done {
							if err != nil || len(res) != 0 {
								t.Errorf("empty call %d: %v, %d bytes back", k, err, len(res))
								return
							}
							break
						}
						p.Sleep(5 * sim.Microsecond)
					}
					cycles++
					p.Sleep(period - sim.Duration(p.Now())%period)
				}
			})
			cycle := func() { c.RunFor(period) }
			for i := 0; i < 50; i++ {
				cycle() // warm: endpoints resident, free lists filled, maps grown
			}
			before := cycles
			if avg := testing.AllocsPerRun(200, cycle); avg != 1 {
				t.Fatalf("a cycle allocates %.2f times, want 1 (the echoed result)", avg)
			}
			if cycles-before != 201 {
				t.Fatalf("%d cycles completed in 201 periods", cycles-before)
			}
			if calls, reissues, queued, deferred := s.Outstanding(); calls+reissues+queued+deferred != 0 || s.acking != nil {
				t.Fatalf("server holds %d calls, %d reissues, %d queued, %d deferred, results awaiting acks: %v",
					calls, reissues, queued, deferred, s.acking != nil)
			}
		})
	}
}

// TestSpentHandleLeavesTheNextCallAlone: a handle whose call was harvested
// or abandoned is inert, even once its record carries a newer call — a
// second Abandon, a TryWait or a WaitTimeout on it neither harvests nor
// drops the newer call.
func TestSpentHandleLeavesTheNextCallAlone(t *testing.T) {
	c := newCluster(t, 2)
	s, stop := recycleServer(t, c, 0)
	finished := false
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		defer func() { *stop = true }()
		cl, err := NewClient(c.Nodes[1], s.Name(), 77)
		if err != nil {
			t.Error(err)
			return
		}
		wait := func(pc PoolPending) ([]byte, error) {
			for {
				cl.Poll(p)
				if res, done, err := pc.TryWait(p); done {
					return res, err
				}
				p.Sleep(5 * sim.Microsecond)
			}
		}
		first, _ := cl.pl.GoCtx(p, 0, procEcho, []byte{1}, reliab.Ctx{})
		if res, err := wait(first); err != nil || !bytes.Equal(res, []byte{1}) {
			t.Errorf("first call: %v, %v", res, err)
			return
		}
		second, _ := cl.pl.GoCtx(p, 0, procEcho, []byte{2}, reliab.Ctx{})
		if second.rb != first.rb {
			t.Error("the second call did not reuse the first call's record")
			return
		}
		// The first handle is spent: every use of it is inert.
		first.Abandon()
		if _, done, err := first.TryWait(p); !done || err != errSpent {
			t.Errorf("TryWait on a harvested handle: done %v, err %v", done, err)
		}
		if _, err := first.WaitTimeout(p, sim.Millisecond); err != errSpent {
			t.Errorf("WaitTimeout on a harvested handle: %v", err)
		}
		if r, _, _ := cl.Outstanding(); r != 1 {
			t.Errorf("%d calls outstanding, want the second", r)
		}
		// An abandoned call's record is not recycled — its fragments may
		// still be read at the server — and its handle stays inert too.
		third, _ := cl.pl.GoCtx(p, 0, procEcho, []byte{3}, reliab.Ctx{})
		third.Abandon()
		third.Abandon()
		if _, done, err := third.TryWait(p); !done || err != errSpent {
			t.Errorf("TryWait on an abandoned handle: done %v, err %v", done, err)
		}
		if res, err := second.WaitTimeout(p, 0); err != nil || !bytes.Equal(res, []byte{2}) {
			t.Errorf("second call: %v, %v", res, err)
		}
		fourth, _ := cl.pl.GoCtx(p, 0, procEcho, []byte{4}, reliab.Ctx{})
		if fourth.rb != second.rb || fourth.rb == third.rb {
			t.Error("the fourth call should reuse the harvested record, not the abandoned one")
		}
		second.Abandon()
		if res, err := wait(fourth); err != nil || !bytes.Equal(res, []byte{4}) {
			t.Errorf("fourth call: %v, %v", res, err)
		}
		finished = true
	})
	c.RunFor(sim.Second)
	if !finished {
		t.Fatal("client did not finish")
	}
}

// TestRecycledBuffersKeepEveryByte streams calls of 1 to 4 fragments
// through recycled records on a lossy fabric across two shards, rebooting
// the server's NI and one client's mid-stream: retransmissions, returns and
// re-issues all alias the buffers being recycled. Every byte of every
// result must be the one its own call sent, and every call executes once.
func TestRecycledBuffersKeepEveryByte(t *testing.T) {
	cfg := hostos.DefaultClusterConfig()
	cfg.Net.DropProb = 0.03
	cfg.NIC.RetransBase = 200 * sim.Microsecond
	cfg.NIC.RetransMax = 2 * sim.Millisecond
	c := hostos.NewShardedCluster(9, 10, 2, cfg)
	defer c.Shutdown()
	const srv, clients, calls = 0, 4, 40
	s, stop := recycleServer(t, c, srv)
	executed := map[uint64]int{}
	s.Register(procEcho, func(_ *sim.Proc, args []byte) ([]byte, error) {
		executed[binary.LittleEndian.Uint64(args)]++
		return args, nil
	})
	done := 0
	for ci := 0; ci < clients; ci++ {
		node := 5 + ci
		c.Nodes[node].Spawn("client", func(p *sim.Proc) {
			defer func() { done++ }()
			cl, err := NewClient(c.Nodes[node], s.Name(), 77)
			if err != nil {
				t.Error(err)
				return
			}
			// Two calls in flight at a time, so a record released too early
			// would be refilled while the other call's bytes still travel.
			var pcs [2]PoolPending
			var wants [2][]byte
			for k := 0; k < calls; k++ {
				// 1 to 4 fragments, the size and the bytes unique per call.
				args := make([]byte, 8+(k%4)*1500+ci*7)
				tag := uint64(ci)<<32 | uint64(k)
				binary.LittleEndian.PutUint64(args, tag)
				for i := 8; i < len(args); i++ {
					args[i] = byte(tag>>(i%5*8)) ^ byte(i)
				}
				proc, want := procEcho, bytes.Clone(args)
				if k%2 == 1 {
					proc, want = procFlip, make([]byte, len(args))
					for i, b := range args {
						want[i] = ^b
					}
				}
				if pcs[k%2], err = cl.pl.GoCtx(p, 0, proc, args, reliab.Ctx{}); err != nil {
					t.Errorf("client %d call %d: %v", ci, k, err)
					return
				}
				wants[k%2] = want
				clear(args) // GoCtx copied them
				if k%2 == 0 {
					continue
				}
				for j := range pcs {
					res, err := pcs[j].WaitTimeout(p, 0)
					if err != nil {
						t.Errorf("client %d call %d: %v", ci, k-1+j, err)
						return
					}
					if !bytes.Equal(res, wants[j]) {
						t.Errorf("client %d call %d: result differs from what the call sent", ci, k-1+j)
						return
					}
				}
			}
		})
	}
	c.Nodes[srv].E.AfterFunc(3*sim.Millisecond, func() { c.Nodes[srv].NIC.Reboot(sim.Millisecond) })
	c.Nodes[6].E.AfterFunc(5*sim.Millisecond, func() { c.Nodes[6].NIC.Reboot(sim.Millisecond) })
	if !c.RunUntilDone(sim.Millisecond, sim.Time(5*sim.Second), func() bool { return done == clients }) {
		t.Fatalf("%d of %d clients finished", done, clients)
	}
	*stop = true
	if len(executed) != clients*calls/2 {
		t.Fatalf("%d echo calls executed, want %d", len(executed), clients*calls/2)
	}
	for tag, n := range executed {
		if n != 1 {
			t.Fatalf("call %x executed %d times", tag, n)
		}
	}
	if _, _, dropped, _ := c.NetTotals(); dropped == 0 {
		t.Fatal("the fabric dropped nothing")
	}
}
