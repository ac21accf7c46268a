// Cross-layer integration tests: the Fig. 1 usage model exercised
// end-to-end — batch jobs and RPC services coexisting on one cluster over
// the virtual network layer, including under spine hot swaps and endpoint
// overcommit.
package virtnet

import (
	"bytes"
	"errors"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/glunix"
	"virtnet/internal/hostos"
	"virtnet/internal/migrate"
	"virtnet/internal/mpi"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
	"virtnet/internal/splitc"
)

// TestGeneralPurposeColocation runs, simultaneously, on a 12-node cluster:
// an RPC key/value service and a batch MPI job — the paper's thesis that
// fast communication should be available to all components at once.
func TestGeneralPurposeColocation(t *testing.T) {
	cl := hostos.NewCluster(3, 12, hostos.DefaultClusterConfig())
	defer cl.Shutdown()

	// --- RPC service on node 0, client on node 1. ---
	kv, err := rpc.NewServer(cl.Nodes[0], 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	store := map[string][]byte{}
	kv.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		store[string(args[:4])] = append([]byte(nil), args[4:]...)
		return nil, nil
	})
	kv.Register(2, func(p *sim.Proc, args []byte) ([]byte, error) {
		return store[string(args)], nil
	})
	rpcStop := false
	cl.Nodes[0].Spawn("kv", func(p *sim.Proc) { kv.Serve(p, func() bool { return rpcStop }) })
	rpcOK := false
	cl.Nodes[1].Spawn("kv-client", func(p *sim.Proc) {
		c, err := rpc.NewClient(cl.Nodes[1], kv.Name(), 0xAA)
		if err != nil {
			t.Errorf("rpc client: %v", err)
			return
		}
		val := bytes.Repeat([]byte{7}, 20000)
		if _, err := c.Call(p, 1, append([]byte("key1"), val...), 0); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		back, err := c.Call(p, 2, []byte("key1"), 0)
		if err != nil || !bytes.Equal(back, val) {
			t.Errorf("get: err=%v len=%d", err, len(back))
			return
		}
		rpcOK = true
	})

	// --- Batch MPI job via the scheduler. ---
	sched := glunix.NewScheduler(cl)
	jobOK := false
	// The scheduler considers all nodes free, so the width-4 job takes the
	// lowest ids, 0-3 — two of which run the service above. That is the
	// point: jobs and services share nodes.
	err = sched.Submit(4, func(p *sim.Proc, rank int, part []*hostos.Node) {
		if rank != 0 {
			return
		}
		ids := make([]int, len(part))
		for i, n := range part {
			ids[i] = int(n.ID)
		}
		w, err := mpi.NewWorld(cl, len(part), ids)
		if err != nil {
			t.Errorf("world: %v", err)
			return
		}
		w.Launch(func(q *sim.Proc, c *mpi.Comm) {
			c.Node().Compute(q, 2*sim.Millisecond)
			out, err := c.Allreduce(q, []float64{float64(c.Rank())}, mpi.OpSum)
			if err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			if c.Rank() == 0 && out[0] == 6 { // 0+1+2+3
				jobOK = true
			}
		})
		for w.Running() > 0 {
			p.Sleep(sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 3000; step++ {
		cl.RunFor(sim.Millisecond)
		if rpcOK && jobOK {
			break
		}
	}
	rpcStop = true
	if !rpcOK || !jobOK {
		t.Fatalf("colocation failed: rpc=%v job=%v", rpcOK, jobOK)
	}
}

// TestServicesSurviveSpineHotSwap drives an RPC service while a spine
// switch is swapped out and back in mid-conversation (§3.2).
func TestServicesSurviveSpineHotSwap(t *testing.T) {
	cl := hostos.NewCluster(7, 12, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	srv, err := rpc.NewServer(cl.Nodes[0], 0xCC)
	if err != nil {
		t.Fatal(err)
	}
	srv.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	stop := false
	cl.Nodes[0].Spawn("srv", func(p *sim.Proc) {
		for !stop {
			if srv.Poll(p) == 0 {
				p.Sleep(10 * sim.Microsecond)
			}
		}
	})
	calls := 0
	// Client on a different leaf so traffic crosses the spines.
	cl.Nodes[11].Spawn("cli", func(p *sim.Proc) {
		c, err := rpc.NewClient(cl.Nodes[11], srv.Name(), 0xCC)
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		for i := 0; i < 40; i++ {
			out, err := c.Call(p, 1, []byte{byte(i)}, 0)
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if out[0] != byte(i) {
				t.Errorf("call %d echoed %d", i, out[0])
				return
			}
			calls++
			p.Sleep(2 * sim.Millisecond)
		}
		stop = true
	})
	// Swap spines out and in underneath the conversation.
	cl.ShardEngine(0).Spawn("swapper", func(p *sim.Proc) {
		for s := 0; !stop && s < 10; s++ {
			p.Sleep(8 * sim.Millisecond)
			cl.ShardNet(0).SetSpineDown(s%5, true)
			p.Sleep(5 * sim.Millisecond)
			cl.ShardNet(0).SetSpineDown(s%5, false)
		}
	})
	for step := 0; step < 5000 && !stop; step++ {
		cl.RunFor(sim.Millisecond)
	}
	if calls != 40 {
		t.Fatalf("only %d/40 calls survived the hot swaps", calls)
	}
}

// TestOvercommitColocation moves a bulk rpc transfer into a node whose NI is
// overcommitted by many endpoints: the transfer still completes, just slower
// (graceful degradation).
func TestOvercommitColocation(t *testing.T) {
	cl := hostos.NewCluster(11, 4, hostos.DefaultClusterConfig())
	defer cl.Shutdown()

	// 12 chattering endpoints on node 0 (8 frames) to force remapping.
	var chatters []*core.Endpoint
	for i := 0; i < 12; i++ {
		b := core.Attach(cl.Nodes[0])
		ep, _ := b.NewEndpoint(core.Key(300+i), 2)
		chatters = append(chatters, ep)
	}
	peerB := core.Attach(cl.Nodes[1])
	peer, _ := peerB.NewEndpoint(299, 16)
	for i, ep := range chatters {
		ep.Map(0, peer.Name(), 299)
		peer.Map(i, ep.Name(), core.Key(300+i))
		ep.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
	}
	peer.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		tok.Reply(p, 2, a)
	})
	stop := false
	cl.Nodes[1].Spawn("peer", func(p *sim.Proc) {
		for !stop {
			if peer.Poll(p) == 0 {
				p.Sleep(10 * sim.Microsecond)
			}
		}
	})
	for i, ep := range chatters {
		ep := ep
		i := i
		cl.Nodes[0].Spawn("chat", func(p *sim.Proc) {
			p.Sleep(sim.Duration(i) * 100 * sim.Microsecond)
			for !stop {
				ep.Request(p, 0, 1, [4]uint64{})
				ep.Poll(p)
				p.Sleep(300 * sim.Microsecond)
			}
		})
	}

	// 200,000 patterned bytes from node 2 into node 0 (the overcommitted
	// node), as rpc calls of 10,000 bytes each.
	const total, chunk = 200000, 10000
	srv, err := rpc.NewServer(cl.Nodes[0], 0xDD)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	srv.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		got = append(got, args...)
		return nil, nil
	})
	cl.Nodes[0].Spawn("rpc-srv", func(p *sim.Proc) { srv.Serve(p, func() bool { return stop }) })
	done := false
	cl.Nodes[2].Spawn("rpc-cli", func(p *sim.Proc) {
		c, err := rpc.NewClient(cl.Nodes[2], srv.Name(), 0xDD)
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		buf := make([]byte, total)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		for off := 0; off < total; off += chunk {
			if _, err := c.Call(p, 1, buf[off:off+chunk], 0); err != nil {
				t.Errorf("call at byte %d: %v", off, err)
				return
			}
		}
		if results, reissues, deferred := c.Outstanding(); results != 0 || reissues != 0 || deferred != 0 {
			t.Errorf("rpc retry bookkeeping leaked: results=%d reissues=%d deferred=%d", results, reissues, deferred)
		}
		done = true
	})

	for step := 0; step < 10000 && !done; step++ {
		cl.RunFor(sim.Millisecond)
	}
	stop = true
	if !done {
		t.Fatal("transfer did not complete under endpoint overcommit")
	}
	if len(got) != total {
		t.Fatalf("server received %d bytes, want %d", len(got), total)
	}
	for i := range got {
		if got[i] != byte(i*31) {
			t.Fatalf("corrupt at byte %d", i)
		}
	}
	if cl.Nodes[0].Driver.Remaps() == 0 {
		t.Fatal("node 0 never remapped; overcommit not exercised")
	}
}

// TestOneShardLayersRefuseAShardedCluster: the layers whose state is shared
// by procs on every node say so from their constructor on a two-shard
// cluster, at once and with one typed error, instead of racing or hanging.
func TestOneShardLayersRefuseAShardedCluster(t *testing.T) {
	cl := hostos.NewShardedCluster(1, 16, 2, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	for _, tc := range []struct {
		name string
		mk   func() error
	}{
		{"mpi.NewWorld", func() error { _, err := mpi.NewWorld(cl, 16, nil); return err }},
		{"splitc.NewWorld", func() error { _, err := splitc.NewWorld(cl, 16, 1024, nil); return err }},
		{"migrate.NewService", func() error { _, err := migrate.NewService(cl); return err }},
		{"glunix.NewMonitor", func() error {
			_, err := glunix.NewMonitor(cl, glunix.NewScheduler(cl), nil)
			return err
		}},
	} {
		if err := tc.mk(); !errors.Is(err, hostos.ErrSharded) {
			t.Errorf("%s on 2 shards: err = %v, want hostos.ErrSharded", tc.name, err)
		}
	}
	if cl.Now() != 0 || cl.EngineStats().Fired != 0 {
		t.Errorf("a refused constructor ran the cluster: now=%v fired=%d", cl.Now(), cl.EngineStats().Fired)
	}
}
