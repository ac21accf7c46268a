package splitc

import (
	"bytes"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

func newWorld(t *testing.T, n, heap int) *World {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	w, err := NewWorld(c, n, heap, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGetPut(t *testing.T) {
	w := newWorld(t, 2, 4096)
	copy(w.Rank(1).Heap[100:], []byte("remote-data"))
	var got []byte
	stop := false
	ok := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			b, err := r.Get(p, 1, 100, 11)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			got = b
			if err := r.Put(p, 1, 200, []byte("written")); err != nil {
				t.Errorf("put: %v", err)
			}
			stop = true
		} else {
			for !stop {
				r.ep.Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	if string(got) != "remote-data" {
		t.Fatalf("get returned %q", got)
	}
	if string(w.Rank(1).Heap[200:207]) != "written" {
		t.Fatalf("put did not write: %q", w.Rank(1).Heap[200:207])
	}
}

func TestStoreAndSync(t *testing.T) {
	w := newWorld(t, 2, 65536)
	const stores = 20
	stop := false
	ok := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < stores; i++ {
				buf := bytes.Repeat([]byte{byte(i + 1)}, 64)
				if err := r.Store(p, 1, i*64, buf); err != nil {
					t.Errorf("store %d: %v", i, err)
				}
			}
			r.StoreSync(p)
			stop = true
		} else {
			for !stop {
				r.ep.Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	for i := 0; i < stores; i++ {
		if w.Rank(1).Heap[i*64] != byte(i+1) || w.Rank(1).Heap[i*64+63] != byte(i+1) {
			t.Fatalf("store %d not applied", i)
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	w := newWorld(t, 2, 128)
	stop := false
	var got []byte
	ok := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			got, _ = r.Get(p, 1, 1000, 64) // beyond heap
			stop = true
		} else {
			for !stop {
				r.ep.Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("did not complete (out-of-range get hung)")
	}
	if len(got) != 0 {
		t.Fatalf("out-of-range get returned %d bytes", len(got))
	}
}

func TestBarrierRounds(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		w := newWorld(t, n, 64)
		var latest sim.Time
		var exits []sim.Time
		ok := w.Run(func(p *sim.Proc, r *Rank) {
			p.Sleep(sim.Duration(r.ID()+1) * sim.Millisecond)
			if p.Now() > latest {
				latest = p.Now()
			}
			r.Barrier(p)
			exits = append(exits, p.Now())
			// Second barrier immediately after: must also work.
			r.Barrier(p)
		}, 10*sim.Second)
		if !ok {
			t.Fatalf("n=%d: barrier deadlocked", n)
		}
		for _, e := range exits {
			if e < latest {
				t.Fatalf("n=%d: rank left barrier at %v before last arrival at %v", n, e, latest)
			}
		}
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	// Both ranks do gets against each other simultaneously; handlers are
	// served by the polling inside Get itself.
	w := newWorld(t, 2, 1024)
	copy(w.Rank(0).Heap, []byte("zero-heap"))
	copy(w.Rank(1).Heap, []byte("one-heap!"))
	results := make([][]byte, 2)
	ok := w.Run(func(p *sim.Proc, r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < 10; i++ {
			b, err := r.Get(p, peer, 0, 9)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			results[r.ID()] = b
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("bidirectional gets deadlocked")
	}
	if string(results[0]) != "one-heap!" || string(results[1]) != "zero-heap" {
		t.Fatalf("results: %q %q", results[0], results[1])
	}
}

// An operation the NI returns to sender (§3.2) is re-issued by the rank's
// return handler. Rank 1's host link goes down for longer than the
// return-to-sender bound, once while rank 0 runs a Put and again while it
// runs a Get: each bounces, is re-issued until the link is back, and then
// completes exactly once with the right bytes.
func TestBouncedOneSidedOpsReissue(t *testing.T) {
	const rts, cut = 2 * sim.Millisecond, 5 * sim.Millisecond
	cfg := hostos.DefaultClusterConfig()
	cfg.NIC.ReturnToSenderAfter = rts
	c := hostos.NewCluster(1, 2, cfg)
	t.Cleanup(c.Shutdown)
	w, err := NewWorld(c, 2, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, target := c.ShardNet(0), c.Nodes[1].ID
	returns := func() int64 { return c.Nodes[0].NIC.C.Get("tx.timeout_return") }
	// outage cuts rank 1's link now and mends it cut later; the op it
	// brackets must outlast it.
	outage := func(p *sim.Proc, op string, run func()) {
		net.SetHostLinkDown(target, true)
		c.Nodes[0].E.AfterFunc(cut, func() { net.SetHostLinkDown(target, false) })
		start, before := p.Now(), returns()
		run()
		if took := p.Now().Sub(start); took < cut {
			t.Errorf("%s completed after %v, inside the %v outage", op, took, cut)
		}
		if returns() == before {
			t.Errorf("%s never bounced", op)
		}
	}
	want := []byte("bounced-put")
	var got []byte
	stop := false
	ok := w.Run(func(p *sim.Proc, r *Rank) {
		if r.ID() != 0 {
			for !stop {
				r.ep.Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
			return
		}
		defer func() { stop = true }()
		outage(p, "put", func() {
			if err := r.Put(p, 1, 200, want); err != nil {
				t.Errorf("put: %v", err)
			}
		})
		outage(p, "get", func() {
			if got, err = r.Get(p, 1, 200, len(want)); err != nil {
				t.Errorf("get: %v", err)
			}
		})
	}, 5*sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	if !bytes.Equal(w.Rank(1).Heap[200:200+len(want)], want) || !bytes.Equal(got, want) {
		t.Fatalf("heap holds %q and the get returned %q, want %q", w.Rank(1).Heap[200:200+len(want)], got, want)
	}
	// One put and one get reached rank 1; one ack and one get reply came back.
	if d0, d1 := w.Rank(0).ep.Stats.Delivered, w.Rank(1).ep.Stats.Delivered; d0 != 2 || d1 != 2 {
		t.Fatalf("handlers run: %d at rank 0, %d at rank 1; want 2 each (every op completes once)", d0, d1)
	}
}
