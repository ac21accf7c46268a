package rpc

import (
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// bounceWorld is one server and n one-call clients; the procedure takes its
// caller's host link down, so every result fragment comes back to the server
// as a transient return. Every client's call has id 0: ids
// are per-client counters.
type bounceWorld struct {
	c     *hostos.Cluster
	s     *Server
	m     *reliab.Metrics
	res   [][]byte // per client: the result, once it arrived
	names []core.EndpointName
}

func newBounceWorld(t *testing.T, n int, sopts Options) *bounceWorld {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	// Returns must land within a few hundred µs of the send.
	cfg.NIC.RetransBase = 40 * sim.Microsecond
	cfg.NIC.RetransMax = 80 * sim.Microsecond
	cfg.NIC.ReturnToSenderAfter = 250 * sim.Microsecond
	w := &bounceWorld{c: hostos.NewCluster(1, n+1, cfg), m: reliab.NewMetrics(),
		res: make([][]byte, n), names: make([]core.EndpointName, n)}
	t.Cleanup(w.c.Shutdown)
	sopts.Metrics = w.m
	s, err := NewServerOpts(w.c.Nodes[0], 77, sopts)
	if err != nil {
		t.Fatal(err)
	}
	w.s = s
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		w.c.ShardNet(0).SetHostLinkDown(w.c.Nodes[args[0]+1].ID, true)
		return args, nil
	})
	w.c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for {
			if s.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	for i := 0; i < n; i++ {
		i, node := i, w.c.Nodes[i+1]
		node.Spawn("client", func(p *sim.Proc) {
			cl, err := NewClientOpts(node, s.Name(), 77, Options{NoBreaker: true})
			if err != nil {
				t.Error(err)
				return
			}
			w.names[i] = cl.pl.ep.Name()
			pc, err := cl.pl.GoCtx(p, 0, 1, []byte{byte(i)}, reliab.Ctx{})
			if err != nil || pc.id != 0 {
				t.Errorf("client %d: go: id %d, err %v", i, pc.id, err)
				return
			}
			w.res[i], _ = pc.WaitTimeout(p, 10*sim.Millisecond)
			for { // keep acknowledging whatever still arrives
				cl.pl.IdlePoll(p, 5*sim.Microsecond, sim.Never)
			}
		})
	}
	return w
}

// runUntil steps the world until cond holds.
func (w *bounceWorld) runUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000 && !cond(); i++ {
		w.c.RunFor(10 * sim.Microsecond)
	}
	if !cond() {
		t.Fatalf("never happened: %s", what)
	}
}

// TestServerRetryStateIsPerClient: two clients whose results bounce under
// the same call id must not share an attempt counter, and one client's
// acknowledgment must not retire the other's record. (They did both when
// the server keyed its records by bare call id.)
func TestServerRetryStateIsPerClient(t *testing.T) {
	w := newBounceWorld(t, 2, Options{})
	records := func() int {
		_, reissues, _, _ := w.s.Outstanding()
		return reissues
	}
	w.runUntil(t, "a record per client for call 0", func() bool { return records() == 2 })
	dark := callKey{client: w.names[1], id: 0}
	before := w.s.retry.Attempts(dark)
	// Client 0 comes back: its result is delivered and acknowledged.
	w.c.ShardNet(0).SetHostLinkDown(w.c.Nodes[1].ID, false)
	w.runUntil(t, "client 0's result", func() bool { return w.res[0] != nil })
	w.runUntil(t, "client 0's record retired", func() bool { return records() == 1 })
	if after := w.s.retry.Attempts(dark); after < before || after == 0 {
		t.Fatalf("client 1's attempts went %d -> %d across client 0's acknowledgment", before, after)
	}
	w.c.ShardNet(0).SetHostLinkDown(w.c.Nodes[2].ID, false)
	w.runUntil(t, "client 1's result", func() bool { return w.res[1] != nil })
	w.c.RunFor(30 * sim.Millisecond) // the longest backoff still parked
	if calls, reissues, queued, deferred := w.s.Outstanding(); calls+reissues+queued+deferred != 0 {
		t.Fatalf("server leaked: calls=%d reissues=%d queued=%d deferred=%d", calls, reissues, queued, deferred)
	}
}

// TestServerBudgetsAreReclaimed: every peer that bounces a result gets a
// retry budget; once the peer is gone and the bucket has refilled, the sweep
// must let go of it, or the map grows with every client that ever bounced.
func TestServerBudgetsAreReclaimed(t *testing.T) {
	const n = 5
	w := newBounceWorld(t, n, Options{StaleAfter: 20 * sim.Millisecond})
	w.runUntil(t, "every client's result given up", func() bool { return w.m.Get("retry_denied") >= n })
	if len(w.s.budgets) != n {
		t.Fatalf("budgets while the peers bounce = %d, want %d", len(w.s.budgets), n)
	}
	// The clients give up after 10 ms, three tokens refill in 750 ms, and
	// the sweep runs every StaleAfter/4.
	w.c.RunFor(800 * sim.Millisecond)
	if len(w.s.budgets) != 0 {
		t.Fatalf("budgets after the peers went silent = %d, want 0", len(w.s.budgets))
	}
	if calls, reissues, queued, deferred := w.s.Outstanding(); calls+reissues+queued+deferred != 0 {
		t.Fatalf("server leaked: calls=%d reissues=%d queued=%d deferred=%d", calls, reissues, queued, deferred)
	}
}

// TestReplyBounceRule: a returned reply — the hCallOK acknowledgment of a
// result — names no translation slot (dstIdx < 0). Which server it was for
// is unambiguous only in a pool with exactly one target, so a Client takes
// it as its server's death and a wider pool ignores it.
func TestReplyBounceRule(t *testing.T) {
	for _, targets := range []int{1, 2} {
		c := newCluster(t, 3)
		var servers []*Server
		for i := 0; i < targets; i++ {
			s, _ := echoServer(t, c, i)
			servers = append(servers, s)
		}
		ran := false
		c.Nodes[2].Spawn("client", func(p *sim.Proc) {
			pl, err := NewPool(c.Nodes[2], 2, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range servers {
				if err := pl.Add(s.Name(), 77); err != nil {
					t.Error(err)
					return
				}
			}
			pl.onReturn(p, nic.NackNotResident, -1, hCallOK, [4]uint64{0}, nil)
			_, err = pl.CallCtx(p, 0, 1, []byte{1}, reliab.Ctx{})
			if targets == 1 {
				if !pl.targets[0].dead || err != ErrUnreachable {
					t.Errorf("one target: dead=%v err=%v, want the target dead", pl.targets[0].dead, err)
				}
			} else if pl.targets[0].dead || pl.targets[1].dead || err != nil {
				t.Errorf("two targets: dead=%v,%v err=%v, want the bounce ignored", pl.targets[0].dead, pl.targets[1].dead, err)
			}
			ran = true
		})
		c.RunFor(50 * sim.Millisecond)
		if !ran {
			t.Fatalf("%d targets: client did not finish", targets)
		}
	}
}
