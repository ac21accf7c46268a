package rpc

import (
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// bounceWorld is one server and n one-call clients; the procedure takes its
// caller's host link down, so every result fragment comes back to the server
// as a transient return. Every client's call has id 0: ids are per-client
// counters.
type bounceWorld struct {
	c   *hostos.Cluster
	s   *Server
	res [][]byte // per client: the result, once it arrived
}

func newBounceWorld(t *testing.T, n int, sopts Options) *bounceWorld {
	t.Helper()
	cfg := hostos.DefaultClusterConfig()
	// Returns must land within a few hundred µs of the send.
	cfg.NIC.RetransBase = 40 * sim.Microsecond
	cfg.NIC.RetransMax = 80 * sim.Microsecond
	cfg.NIC.ReturnToSenderAfter = 250 * sim.Microsecond
	w := &bounceWorld{c: hostos.NewCluster(1, n+1, cfg), res: make([][]byte, n)}
	t.Cleanup(w.c.Shutdown)
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

// acking lists the server's records awaiting a result acknowledgment.
func (w *bounceWorld) acking() []*callBuf {
	var cbs []*callBuf
	for cb := w.s.acking; cb != nil; cb = cb.next {
		cbs = append(cbs, cb)
	}
	return cbs
}

// TestServerRetryStateIsPerClient: two clients whose results bounce under
// the same call id each leave their own record awaiting acknowledgment, and
// one client's acknowledgment must not retire the other's record. (A record
// keyed by bare call id would be shared by both.)
func TestServerRetryStateIsPerClient(t *testing.T) {
	w := newBounceWorld(t, 2, Options{StaleAfter: 20 * sim.Millisecond})
	w.runUntil(t, "a record per client for call 0", func() bool { return len(w.acking()) == 2 })
	recs := w.acking()
	if recs[0].id != 0 || recs[1].id != 0 || recs[0].clientEP == recs[1].clientEP {
		t.Fatalf("records (%v, %d) and (%v, %d), want call 0 of two clients",
			recs[0].clientEP, recs[0].id, recs[1].clientEP, recs[1].id)
	}
	// Acknowledge the later record, so a search by bare id would stop at the
	// other one first.
	dark, acked := recs[0].clientEP, recs[1].clientEP
	w.s.acked(callKey{client: acked, id: 0})
	if left := w.acking(); len(left) != 1 || left[0].clientEP != dark || left[0].acks != 1 {
		t.Fatalf("after %v's acknowledgment, records = %d, want only %v's, still unacknowledged", acked, len(left), dark)
	}
	// The sweep runs every StaleAfter/4 and reclaims the other record.
	w.c.RunFor(50 * sim.Millisecond)
	if calls, reissues, queued, deferred := w.s.Outstanding(); calls+reissues+queued+deferred != 0 || w.s.acking != nil {
		t.Fatalf("server leaked: calls=%d reissues=%d queued=%d deferred=%d acking=%d",
			calls, reissues, queued, deferred, len(w.acking()))
	}
}

// TestBouncedResultsLeaveNoServerState: a result fragment that comes back
// to the server is dropped where it lands — the client owns recovery — so it
// leaves no re-issue or deferred send behind, and once the clients have given
// up and Sweep has run, no call and no record awaiting an acknowledgment
// either.
func TestBouncedResultsLeaveNoServerState(t *testing.T) {
	const n = 3
	w := newBounceWorld(t, n, Options{StaleAfter: 20 * sim.Millisecond})
	ni := w.c.Nodes[0].NIC
	w.runUntil(t, "every result returned to the server", func() bool { return ni.C.Get("rts.delivered") >= n })
	// Each result echoes its args, so its record waits for an acknowledgment
	// that cannot come.
	if got := len(w.acking()); got != n {
		t.Fatalf("records awaiting acknowledgment = %d, want %d", got, n)
	}
	// The clients give up after 10 ms, and the sweep runs every StaleAfter/4.
	w.c.RunFor(50 * sim.Millisecond)
	if got := len(w.acking()); got != 0 {
		t.Fatalf("records awaiting acknowledgment after the sweep = %d, want 0", got)
	}
	if calls, reissues, queued, deferred := w.s.Outstanding(); calls+reissues+queued+deferred != 0 {
		t.Fatalf("server leaked: calls=%d reissues=%d queued=%d deferred=%d", calls, reissues, queued, deferred)
	}
	// Each client's call acknowledgment and its result come back once each:
	// nothing was re-sent.
	if got := ni.C.Get("rts.delivered"); got != 2*n {
		t.Fatalf("messages returned to the server = %d, want %d", got, 2*n)
	}
	for i, r := range w.res {
		if r != nil {
			t.Fatalf("client %d got a result through a dark link", i)
		}
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
