package gam

import (
	"fmt"
	"testing"

	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

func newWorld(t *testing.T, n int) (*sim.Engine, *World) {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.New(e, netsim.DefaultConfig(), n)
	w := New(e, net)
	t.Cleanup(func() { w.Stop(); e.Shutdown() })
	return e, w
}

func TestGAMRequestReply(t *testing.T) {
	e, w := newWorld(t, 2)
	var got uint64
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, [4]uint64{args[0] * 2})
	})
	w.Node(0).SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		got = args[0]
	})
	e.Spawn("server", func(p *sim.Proc) {
		for got == 0 {
			w.Node(1).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		w.Node(0).Request(p, 1, 1, [4]uint64{21})
		for got == 0 {
			w.Node(0).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.RunFor(100 * sim.Millisecond)
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestGAMBulk(t *testing.T) {
	e, w := newWorld(t, 2)
	var n int
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte) {
		n = len(payload)
	})
	e.Spawn("server", func(p *sim.Proc) {
		for n == 0 {
			w.Node(1).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		if err := w.Node(0).RequestBulk(p, 1, 1, make([]byte, 4096), [4]uint64{}); err != nil {
			t.Errorf("bulk: %v", err)
		}
	})
	e.RunFor(100 * sim.Millisecond)
	if n != 4096 {
		t.Fatalf("payload len = %d", n)
	}
}

func TestGAMPayloadLimit(t *testing.T) {
	e, w := newWorld(t, 2)
	var fits, over error
	e.Spawn("client", func(p *sim.Proc) {
		fits = w.Node(0).RequestBulk(p, 1, 1, make([]byte, 8192), [4]uint64{})
		over = w.Node(0).RequestBulk(p, 1, 1, make([]byte, 8193), [4]uint64{})
	})
	e.RunFor(sim.Millisecond)
	if fits != nil || over != ErrPayloadSize {
		t.Fatalf("8192 bytes: %v, 8193 bytes: %v; want the MTU at 8 KB", fits, over)
	}
}

func TestGAMCredits(t *testing.T) {
	e, w := newWorld(t, 2)
	done := 0
	total := credits + 8
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, args)
	})
	w.Node(0).SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) { done++ })
	e.Spawn("server", func(p *sim.Proc) {
		for done < total {
			w.Node(1).Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			w.Node(0).Request(p, 1, 1, [4]uint64{uint64(i)})
		}
		for done < total {
			w.Node(0).Poll(p)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	e.RunFor(sim.Second)
	if done != total {
		t.Fatalf("done = %d, want %d (credit deadlock?)", done, total)
	}
}

func TestGAMLowerGapThanVirtualNetworks(t *testing.T) {
	// Sanity check on the calibration direction: GAM's per-message NI
	// occupancy (sendCritical+sendPost) must be well below the virtual
	// network's, since Fig. 3 reports a 2.21x gap ratio.
	if gamGap := sendCritical + sendPost; gamGap > 7*sim.Microsecond {
		t.Fatalf("GAM per-message occupancy %v too large", gamGap)
	}
}

func TestGAMReplyBulk(t *testing.T) {
	e, w := newWorld(t, 2)
	var got []byte
	done := false
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte) {
		tok.ReplyBulk(p, 2, payload, args) // echo the payload back
	})
	w.Node(0).SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, payload []byte) {
		got = payload
		done = true
	})
	e.Spawn("server", func(p *sim.Proc) {
		for !done {
			w.Node(1).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		buf := make([]byte, 2048)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		w.Node(0).RequestBulk(p, 1, 1, buf, [4]uint64{})
		for !done {
			w.Node(0).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.RunFor(100 * sim.Millisecond)
	if len(got) != 2048 || int(got[100]) != (100*7)%256 {
		t.Fatalf("bulk echo corrupted: len=%d", len(got))
	}
}

func TestGAMDoubleReplyRejected(t *testing.T) {
	e, w := newWorld(t, 2)
	var second error
	done := false
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		tok.Reply(p, 2, args)
		second = tok.Reply(p, 2, args)
		done = true
	})
	e.Spawn("server", func(p *sim.Proc) {
		for !done {
			w.Node(1).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		w.Node(0).Request(p, 1, 1, [4]uint64{})
	})
	e.RunFor(50 * sim.Millisecond)
	if second == nil {
		t.Fatal("double reply accepted")
	}
}

func TestGAMManyNodes(t *testing.T) {
	e, w := newWorld(t, 8)
	served := make([]int, 8)
	for i := 0; i < 8; i++ {
		i := i
		w.Node(i).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
			served[i]++
			tok.Reply(p, 2, args)
		})
		w.Node(i).SetHandler(2, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {})
	}
	finished := 0
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn("peer", func(p *sim.Proc) {
			for j := 0; j < 8; j++ {
				if j != i {
					w.Node(i).Request(p, j, 1, [4]uint64{})
				}
			}
			for w.Node(i).recvq.Len() > 0 || served[i] < 7 {
				w.Node(i).Poll(p)
				p.Sleep(2 * sim.Microsecond)
			}
			finished++
		})
	}
	e.RunFor(sim.Second)
	if finished != 8 {
		t.Fatalf("finished = %d/8", finished)
	}
	for i, s := range served {
		if s != 7 {
			t.Fatalf("node %d served %d, want 7", i, s)
		}
	}
}

// TestGAMShortReplyPostIsFree pins GAM's short-reply overhead at zero: the
// calibration never charged one, and the Fig. 3 GAM row was fitted that way.
// A short request's post, for contrast, costs Os = 2.9 us.
func TestGAMShortReplyPostIsFree(t *testing.T) {
	e, w := newWorld(t, 2)
	reqPost, replyPost := sim.Duration(-1), sim.Duration(-1)
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		start := p.Now()
		tok.Reply(p, 2, args)
		replyPost = p.Now().Sub(start)
	})
	w.Node(0).SetHandler(2, func(*sim.Proc, *Token, [4]uint64, []byte) {})
	e.Spawn("server", func(p *sim.Proc) {
		for replyPost < 0 {
			w.Node(1).Poll(p)
			p.Sleep(sim.Microsecond)
		}
	})
	e.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		w.Node(0).Request(p, 1, 1, [4]uint64{})
		reqPost = p.Now().Sub(start)
	})
	e.RunFor(10 * sim.Millisecond)
	if replyPost != 0 {
		t.Errorf("short reply post took %v, want 0", replyPost)
	}
	if reqPost != 2900 {
		t.Errorf("short request post took %v, want 2.9us", reqPost)
	}
}

// visibleAt spins in 1 ns steps until node n holds more than k undelivered
// messages and returns that instant: when the k+1-th message became visible.
func visibleAt(p *sim.Proc, n *Node, k int) sim.Time {
	for n.recvq.Len() <= k {
		p.Sleep(1)
	}
	return p.Now()
}

// TestGAMShortRoundTripTimeline pins every charge on a short request and its
// reply, in nanoseconds. One way is Os 2.9 us (replies 0), NI send 1.2 us,
// the wire 813 ns (two hops of 300 ns plus a 32-byte header at 150 MB/s),
// NI receive 1.0 us and 4.5 us until a host poll can see it; the handler
// then runs after the poll's 0.5 us and Or (4.1 us, replies 1.3 us).
func TestGAMShortRoundTripTimeline(t *testing.T) {
	e, w := newWorld(t, 2)
	var got []sim.Time
	w.Node(1).SetHandler(1, func(p *sim.Proc, tok *Token, args [4]uint64, _ []byte) {
		got = append(got, p.Now())
		tok.Reply(p, 2, args)
	})
	w.Node(0).SetHandler(2, func(p *sim.Proc, _ *Token, _ [4]uint64, _ []byte) {
		got = append(got, p.Now())
	})
	e.Spawn("server", func(p *sim.Proc) {
		got = append(got, visibleAt(p, w.Node(1), 0))
		w.Node(1).Poll(p)
	})
	e.Spawn("client", func(p *sim.Proc) {
		w.Node(0).Request(p, 1, 1, [4]uint64{})
		got = append(got, visibleAt(p, w.Node(0), 0))
		w.Node(0).Poll(p)
	})
	e.RunFor(sim.Millisecond)
	// request visible, request handler, reply visible, reply handler
	want := []sim.Time{10413, 15013, 22526, 24326}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("timeline %v, want %v", got, want)
	}
}

// TestGAMBulkAndOccupancyTimeline pins the bulk path and the NI occupancy
// that one short message alone never shows.
//   - Node 0 sends node 1 3159 bytes, a size whose SBUS transfers last whole
//     nanoseconds: 58.5 us host -> NI at 54 MB/s, 67.5 us NI -> host at
//     46.8 MB/s.
//   - Node 3's short message reaches node 1 while its NI handles the bulk,
//     so it waits out the bulk's 2.0 us receive post.
//   - Node 2 sends node 3 27 bytes, then node 4 a short message, which
//     leaves only after the bulk's 1.6 us send post.
func TestGAMBulkAndOccupancyTimeline(t *testing.T) {
	e, w := newWorld(t, 5)
	var at1 []sim.Time
	var at4 sim.Time
	w.Node(1).SetHandler(1, func(p *sim.Proc, _ *Token, _ [4]uint64, payload []byte) {
		if len(payload) > 0 {
			at1 = append(at1, p.Now())
		}
	})
	e.Spawn("node 1", func(p *sim.Proc) {
		at1 = append(at1, visibleAt(p, w.Node(1), 0), visibleAt(p, w.Node(1), 1))
		w.Node(1).Poll(p)
	})
	e.Spawn("node 4", func(p *sim.Proc) { at4 = visibleAt(p, w.Node(4), 0) })
	e.Spawn("node 0", func(p *sim.Proc) {
		w.Node(0).RequestBulk(p, 1, 1, make([]byte, 3159), [4]uint64{})
	})
	e.Spawn("node 3", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		w.Node(3).Request(p, 1, 1, [4]uint64{})
	})
	e.Spawn("node 2", func(p *sim.Proc) {
		w.Node(2).RequestBulk(p, 3, 1, make([]byte, 27), [4]uint64{})
		w.Node(2).Request(p, 4, 1, [4]uint64{})
	})
	e.RunFor(sim.Millisecond)
	// The bulk: Os 3.6 us, DMA setup 1 us + 58.5 us, NI send 1.2 us, the wire
	// 600 ns + 3191 bytes in 21.273 us, NI receive 1 us + 33 us + DMA setup
	// 1 us + 67.5 us, then 4.5 us until visible. Node 3's message: NI receive
	// 2 us after that deposit, then 1 us + 4.5 us. The poll: 0.5 us, then the
	// bulk's Or of 4.4 us.
	if want := []sim.Time{193173, 196173, 201073}; fmt.Sprint(at1) != fmt.Sprint(want) {
		t.Errorf("node 1: bulk and short visible, bulk handled at %v; want %v", at1, want)
	}
	// Node 2: Os 3.6 us, DMA 1 us + 0.5 us, NI send 1.2 us, send post 1.6 us;
	// the short message (posted meanwhile), then as in the round trip.
	if at4 != 15413 {
		t.Errorf("node 4: short message visible at %v, want 15.413us", at4)
	}
}

// TestGAMCreditsAndQueueDepth pins GAM's flow-control sizes: a node has 16
// requests outstanding per destination, and a receive queue holds 64
// messages, dropping the rest. Five clients each try 17 requests to a node
// that never polls: 80 go out, 64 queue, 16 drop.
func TestGAMCreditsAndQueueDepth(t *testing.T) {
	e, w := newWorld(t, 6)
	sent := 0
	for c := 1; c <= 5; c++ {
		e.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 17; i++ {
				if w.Node(c).Request(p, 0, 1, [4]uint64{}) == nil {
					sent++
				}
			}
		})
	}
	e.RunFor(10 * sim.Millisecond)
	for c := 1; c <= 5; c++ {
		if n := w.Node(c); n.sendq.Len() > 0 {
			t.Fatalf("client %d still holds %d sends", c, n.sendq.Len())
		}
	}
	n := w.Node(0)
	if n.inbound.Len() > 0 || n.pendingDeposit > 0 {
		t.Fatalf("%d arrivals unhandled, %d deposits pending", n.inbound.Len(), n.pendingDeposit)
	}
	queued := n.recvq.Len()
	if sent != 80 || queued != 64 {
		t.Fatalf("sent %d, queued %d; want 80 and 64 (16 dropped)", sent, queued)
	}
}
