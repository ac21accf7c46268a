package migrate

import (
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

func newCluster(t *testing.T, n int, mod func(*hostos.ClusterConfig)) *hostos.Cluster {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	if mod != nil {
		mod(&cfg)
	}
	c := hostos.NewCluster(1, n, cfg)
	t.Cleanup(c.Shutdown)
	return c
}

// echoServer builds a managed echo endpoint on node and a service proc that
// follows it across migrations: the handle swap installed by Manage
// retargets the poll loop.
func echoServer(t *testing.T, c *hostos.Cluster, svc *Service, node int, key core.Key) *core.Endpoint {
	t.Helper()
	b := core.Attach(c.Nodes[node])
	b.SetResolver(svc.Dir)
	ep, err := b.NewEndpoint(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.SetHandler(1, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		if err := tok.Reply(p, 2, args); err != nil {
			t.Errorf("server reply: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	cur := ep
	svc.Manage(ep, func(n *core.Endpoint) { cur = n })
	c.Nodes[node].Spawn("server", func(p *sim.Proc) {
		for {
			cur.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	return ep
}

// client attaches a request generator to node; it sends ids [1..n] with
// handler 1 to the server endpoint mapped at slot 0 and records per-id reply
// counts.
type client struct {
	ep      *core.Endpoint
	replies map[uint64]int
	returns int
	done    bool
}

func newClient(t *testing.T, c *hostos.Cluster, svc *Service, node int, server *core.Endpoint, serverKey core.Key) *client {
	t.Helper()
	b := core.Attach(c.Nodes[node])
	b.SetResolver(svc.Dir)
	ep, err := b.NewEndpoint(core.Key(1000+node), 8)
	if err != nil {
		t.Fatal(err)
	}
	cl := &client{ep: ep, replies: make(map[uint64]int)}
	ep.SetHandler(2, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		cl.replies[args[0]]++
	})
	ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, _ int, args [4]uint64, _ []byte) {
		cl.returns++
	})
	if err := ep.Map(0, server.Name(), serverKey); err != nil {
		t.Fatal(err)
	}
	return cl
}

// run sends n requests spaced by gap and then polls until every id has a
// reply (or the engine stops).
func (cl *client) run(c *hostos.Cluster, node, n int, gap sim.Duration) {
	c.Nodes[node].Spawn("client", func(p *sim.Proc) {
		for id := 1; id <= n; id++ {
			if err := cl.ep.Request(p, 0, 1, [4]uint64{uint64(id)}); err != nil {
				return
			}
			p.Sleep(gap)
		}
		for len(cl.replies) < n {
			cl.ep.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
		cl.done = true
	})
}

func TestLiveMigrationUnderLoadExactlyOnce(t *testing.T) {
	c := newCluster(t, 3, nil)
	svc, err := NewService(c)
	if err != nil {
		t.Fatal(err)
	}
	server := echoServer(t, c, svc, 0, 77)
	epID := server.Segment().EP.ID
	cl := newClient(t, c, svc, 1, server, 77)

	const n = 200
	cl.run(c, 1, n, 50*sim.Microsecond)

	var stats *MoveStats
	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		p.Sleep(3 * sim.Millisecond)
		s, err := svc.Move(p, server, 2)
		if err != nil {
			t.Errorf("move: %v", err)
			return
		}
		stats = s
	})
	c.RunFor(3 * sim.Second)

	if !cl.done {
		t.Fatalf("client incomplete: %d/%d ids replied", len(cl.replies), n)
	}
	for id := uint64(1); id <= n; id++ {
		if cl.replies[id] != 1 {
			t.Fatalf("id %d got %d replies, want exactly 1", id, cl.replies[id])
		}
	}
	if cl.returns != 0 {
		t.Fatalf("client saw %d user-level returns; redirects must be transparent", cl.returns)
	}
	if stats == nil {
		t.Fatal("move never completed")
	}
	if stats.Blackout <= 0 {
		t.Fatalf("blackout = %v, want > 0", stats.Blackout)
	}
	if h, ok := svc.Endpoint(epID); !ok || h.Bundle().Node.ID != 2 {
		t.Fatalf("the managed handle is not on node 2 (managed %v)", ok)
	}
	if got, ok := svc.Dir.Resolve(epID); !ok || got != 2 {
		t.Fatalf("directory resolves to %v (ok=%v), want node 2", got, ok)
	}
	if v := svc.Dir.Version(epID); v != 1 {
		t.Fatalf("directory version = %d, want 1", v)
	}
	if cl.ep.Stats.Redirects == 0 {
		t.Fatal("no redirects observed; the move was not exercised under load")
	}
	// The old handle is dead.
	var errMoved error
	c.Nodes[0].Spawn("stale", func(p *sim.Proc) {
		errMoved = server.Request(p, 0, 1, [4]uint64{})
	})
	c.RunFor(sim.Millisecond)
	if errMoved != core.ErrMoved {
		t.Fatalf("stale handle request = %v, want ErrMoved", errMoved)
	}
}

// Messages already deposited in the endpoint's receive queue at freeze time
// must travel with the image and be served from the new node exactly once.
func TestPendingMessagesTravelWithTheEndpoint(t *testing.T) {
	c := newCluster(t, 2, nil)
	svc, err := NewService(c)
	if err != nil {
		t.Fatal(err)
	}
	// Server endpoint with no poller yet: requests pile up in its queue.
	b := core.Attach(c.Nodes[0])
	b.SetResolver(svc.Dir)
	server, _ := b.NewEndpoint(5, 8)
	server.SetHandler(1, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, args)
	})
	var handle *core.Endpoint
	svc.Manage(server, func(n *core.Endpoint) { handle = n })

	cl := newClient(t, c, svc, 1, server, 5)
	const n = 10
	cl.run(c, 1, n, 20*sim.Microsecond)

	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // let the burst deposit
		if server.Segment().EP.PendingRecvs() == 0 {
			t.Error("setup: no pending messages at freeze time")
		}
		if _, err := svc.Move(p, server, 1); err != nil {
			t.Errorf("move: %v", err)
			return
		}
		// Serve the migrated-in endpoint at the destination.
		for {
			handle.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})
	c.RunFor(2 * sim.Second)
	if !cl.done {
		t.Fatalf("client incomplete: %d/%d", len(cl.replies), n)
	}
	for id := uint64(1); id <= n; id++ {
		if cl.replies[id] != 1 {
			t.Fatalf("id %d got %d replies, want exactly 1", id, cl.replies[id])
		}
	}
}

func TestMoveBackAndForth(t *testing.T) {
	c := newCluster(t, 2, nil)
	svc, err := NewService(c)
	if err != nil {
		t.Fatal(err)
	}
	server := echoServer(t, c, svc, 0, 9)
	epID := server.Segment().EP.ID
	cl := newClient(t, c, svc, 1, server, 9)

	const n = 300
	cl.run(c, 1, n, 40*sim.Microsecond)

	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		cur, _ := svc.Endpoint(epID)
		if _, err := svc.Move(p, cur, 1); err != nil {
			t.Errorf("move 0->1: %v", err)
			return
		}
		p.Sleep(3 * sim.Millisecond)
		cur, _ = svc.Endpoint(epID)
		if _, err := svc.Move(p, cur, 0); err != nil {
			t.Errorf("move 1->0: %v", err)
			return
		}
	})
	c.RunFor(5 * sim.Second)
	if !cl.done {
		t.Fatalf("client incomplete: %d/%d", len(cl.replies), n)
	}
	for id := uint64(1); id <= n; id++ {
		if cl.replies[id] != 1 {
			t.Fatalf("id %d got %d replies, want exactly 1", id, cl.replies[id])
		}
	}
	if v := svc.Dir.Version(epID); v != 2 {
		t.Fatalf("directory version = %d after two moves, want 2", v)
	}
	cur, _ := svc.Endpoint(epID)
	if cur.Bundle().Node.ID != 0 {
		t.Fatalf("endpoint on node %d, want back on 0", cur.Bundle().Node.ID)
	}
	if cur.Name() != server.Name() {
		t.Fatal("opaque name changed across migrations")
	}
}

// Churn under packet loss: repeated migrations while the network drops
// packets and the destination overcommits its endpoint frames. Exactly-once
// must hold for every request across every move.
// The name service must behave like a versioned register under concurrent
// use of one endpoint name: a mover rebinds it (Move → Publish), two loaded
// clients keep resolving it through NackMoved refreshes, an observer polls
// Resolve/Version directly, and unrelated names churn the directory map the
// whole time. The version must be monotonic, each version must denote
// exactly one binding, and no client may be served from a stale translation
// after its refresh — every request gets exactly one reply.
func TestDirectoryVersionConflictUnderConcurrentMoves(t *testing.T) {
	c := newCluster(t, 4, nil)
	svc, err := NewService(c)
	if err != nil {
		t.Fatal(err)
	}
	server := echoServer(t, c, svc, 0, 88)
	epID := server.Segment().EP.ID
	cl1 := newClient(t, c, svc, 1, server, 88)
	cl2 := newClient(t, c, svc, 2, server, 88)
	const n = 250
	cl1.run(c, 1, n, 40*sim.Microsecond)
	cl2.run(c, 2, n, 55*sim.Microsecond)

	// Mover: rebind the name while the clients are mid-stream.
	dsts := []netsim.NodeID{1, 2, 3}
	moves := 0
	c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
		for _, dst := range dsts {
			p.Sleep(2 * sim.Millisecond)
			cur, ok := svc.Endpoint(epID)
			if !ok {
				t.Error("managed endpoint lost")
				return
			}
			if _, err := svc.Move(p, cur, dst); err != nil {
				t.Errorf("move->%d: %v", dst, err)
				return
			}
			moves++
		}
	})

	// Observer: poll the directory concurrently, recording every (version,
	// node) pair it is served.
	type binding struct {
		ver  uint64
		node netsim.NodeID
	}
	var seen []binding
	c.Nodes[3].Spawn("lookup", func(p *sim.Proc) {
		for {
			if node, ok := svc.Dir.Resolve(epID); ok {
				seen = append(seen, binding{svc.Dir.Version(epID), node})
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})

	// Churn: concurrent Publish/Forget of unrelated names stresses the
	// directory map around the contended entry.
	c.Nodes[3].Spawn("churn", func(p *sim.Proc) {
		for i := 0; ; i++ {
			id := 100000 + i%16
			svc.Dir.Publish(id, netsim.NodeID(i%4))
			p.Sleep(150 * sim.Microsecond)
			if i%3 == 0 {
				svc.Dir.Forget(id)
			}
		}
	})

	c.RunFor(5 * sim.Second)

	if moves != len(dsts) {
		t.Fatalf("completed %d moves, want %d", moves, len(dsts))
	}
	for i, cl := range []*client{cl1, cl2} {
		if !cl.done {
			t.Fatalf("client %d incomplete: %d/%d ids replied", i+1, len(cl.replies), n)
		}
		for id := uint64(1); id <= n; id++ {
			if cl.replies[id] != 1 {
				t.Fatalf("client %d id %d: %d replies, want exactly 1", i+1, id, cl.replies[id])
			}
		}
		if cl.returns != 0 {
			t.Fatalf("client %d saw %d user-level returns; redirects must be transparent", i+1, cl.returns)
		}
	}
	if cl1.ep.Stats.Redirects+cl2.ep.Stats.Redirects == 0 {
		t.Fatal("no NackMoved redirects; the moves were not exercised under load")
	}

	// Version semantics: monotonic, and one binding per version.
	byVer := make(map[uint64]netsim.NodeID)
	var last uint64
	for _, b := range seen {
		if b.ver < last {
			t.Fatalf("directory version went backwards: %d after %d", b.ver, last)
		}
		last = b.ver
		if prev, ok := byVer[b.ver]; ok && prev != b.node {
			t.Fatalf("version %d served two bindings: node %d and node %d", b.ver, prev, b.node)
		}
		byVer[b.ver] = b.node
	}
	if v := svc.Dir.Version(epID); v != uint64(len(dsts)) {
		t.Fatalf("final version = %d, want %d (one bump per move)", v, len(dsts))
	}
	final := dsts[len(dsts)-1]
	if node, ok := svc.Dir.Resolve(epID); !ok || node != final {
		t.Fatalf("final resolve = (%d,%v), want (%d,true)", node, ok, final)
	}
	if node, ok := byVer[uint64(len(dsts))]; ok && node != final {
		t.Fatalf("observer saw final version at node %d, want %d", node, final)
	}
}

func TestMigrationChurnUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := hostos.DefaultClusterConfig()
		cfg.Net.DropProb = 0.02
		c := hostos.NewCluster(seed, 3, cfg)
		svc, err := NewService(c)
		if err != nil {
			t.Fatal(err)
		}
		server := echoServer(t, c, svc, 0, 33)
		epID := server.Segment().EP.ID
		cl := newClient(t, c, svc, 1, server, 33)
		const n = 250
		cl.run(c, 1, n, 60*sim.Microsecond)

		moves := 0
		c.Nodes[0].Spawn("mover", func(p *sim.Proc) {
			dsts := []int{1, 2, 0, 2, 1}
			for _, dst := range dsts {
				p.Sleep(2 * sim.Millisecond)
				cur, _ := svc.Endpoint(epID)
				if cur.Bundle().Node.ID == netsim.NodeID(dst) {
					continue
				}
				if _, err := svc.Move(p, cur, netsim.NodeID(dst)); err != nil {
					t.Errorf("seed %d move->%d: %v", seed, dst, err)
					return
				}
				moves++
			}
		})
		c.RunFor(10 * sim.Second)
		if !cl.done {
			t.Fatalf("seed %d: client incomplete: %d/%d (moves=%d)", seed, len(cl.replies), n, moves)
		}
		for id := uint64(1); id <= n; id++ {
			if cl.replies[id] != 1 {
				t.Fatalf("seed %d id %d: %d replies, want exactly 1", seed, id, cl.replies[id])
			}
		}
		if moves < 4 {
			t.Fatalf("seed %d: only %d moves; churn not exercised", seed, moves)
		}
		c.Shutdown()
	}
}
