package nic

import (
	"math/rand"
	"testing"

	"virtnet/internal/sim"
)

// TestNackRequeueRedeliverAllocFree pins the slow path at zero allocations:
// a message refused by a full receive queue is NACKed, requeued behind its
// backoff wake-up, retransmitted under a fresh sequence number and delivered
// once the host has drained the queue. Headers (the master, each copy, the
// NACK and the ACK), the send descriptor and the receive descriptor all come
// from and go back to a pool, the wake-up is a pooled event, the counters
// are handles and no note is built for a flight that is nil.
func TestNackRequeueRedeliverAllocFree(t *testing.T) {
	r := newRig(t, 2, 1, func(c *Config) { c.RecvQDepth = 1 }, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	dst := r.newEP(t, 1, 2, 2, 0)
	tx, rx := r.nics[0], r.nics[1]

	next := uint64(0)
	send := func() {
		next++
		d := tx.AllocDesc()
		d.DstNI, d.DstEP, d.Key, d.Handler, d.MsgID, d.Args[0] = 1, 2, 2, 1, next, next
		r.send(0, src, d)
	}
	// The queue holds message k, undelivered to the host. One cycle sends
	// k+1 into the full queue, lets it bounce, pops k and runs until k+1 has
	// been redelivered and acknowledged.
	send()
	r.e.RunFor(sim.Millisecond)
	popped := uint64(0)
	cycle := func() {
		send()
		r.e.RunFor(50 * sim.Microsecond)
		m, _ := dst.RecvQ.Pop()
		if m == nil || m.Args[0] != popped+1 {
			t.Fatalf("popped %+v, want message %d", m, popped+1)
		}
		popped++
		m.Free()
		r.e.RunFor(950 * sim.Microsecond)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm: pools filled, deques and timers grown
	}
	nacks := rx.C.Get("tx.nack.overrun")
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("NACK → requeue → redeliver allocates %.2f times per cycle, want 0", avg)
	}
	if got := rx.C.Get("tx.nack.overrun") - nacks; got != 101 || tx.C.Get("rx.nack.overrun") != rx.C.Get("tx.nack.overrun") {
		t.Fatalf("%d NACKs sent in 101 cycles (received %d of %d)", got, tx.C.Get("rx.nack.overrun"), rx.C.Get("tx.nack.overrun"))
	}
	if rx.C.Get("rx.delivered") != int64(next) || dst.RecvQ.Len() != 1 || src.Inflight() != 0 || src.PendingSends() != 0 {
		t.Fatalf("delivered %d of %d, queue %d, inflight %d, pending %d",
			rx.C.Get("rx.delivered"), next, dst.RecvQ.Len(), src.Inflight(), src.PendingSends())
	}
	// Nothing leaked and nothing double-freed: every header and descriptor
	// either NI ever made is back in a free list.
	hm0, hf0, dm0, df0 := tx.PoolStats()
	hm1, hf1, dm1, df1 := rx.PoolStats()
	if hf0+hf1 != hm0+hm1 || df0+df1 != dm0+dm1 {
		t.Fatalf("headers %d+%d free of %d+%d made, descriptors %d+%d of %d+%d", hf0, hf1, hm0, hm1, df0, df1, dm0, dm1)
	}
	for _, n := range r.nics {
		if err := n.VerifyPoolLocality(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDirectlyBuiltObjectsAreNeverPooled: descriptors and headers that tests
// construct themselves have no owner, pass through the same frees and never
// enter a free list.
func TestDirectlyBuiltObjectsAreNeverPooled(t *testing.T) {
	r := newRig(t, 2, 1, nil, nil)
	defer r.shutdown()
	src := r.newEP(t, 0, 1, 1, 0)
	r.newEP(t, 1, 2, 2, 0)
	for i := 0; i < 10; i++ {
		r.send(0, src, &SendDesc{DstNI: 1, DstEP: 2, Key: 2, Handler: 1})
	}
	r.e.RunFor(sim.Millisecond)
	if _, _, made, free := r.nics[0].PoolStats(); made != 0 || free != 0 {
		t.Fatalf("%d unowned descriptors pooled, %d counted as made", free, made)
	}
	w := &wirePkt{Kind: pktAck}
	w.releaseTo(r.nics[0])
	if r.nics[0].hdrFree == w {
		t.Fatal("an unowned header entered the free list")
	}
}

// oracleWindow is msgWindow.mark as it was before the in-order fast path: the
// map allocated with the window, every id inserted, looked up and deleted.
// Kept only here.
type oracleWindow struct {
	contig uint64
	sparse map[uint64]struct{}
}

func (w *oracleWindow) has(id uint64) bool {
	if id <= w.contig {
		return true
	}
	_, dup := w.sparse[id]
	return dup
}

func (w *oracleWindow) mark(id uint64) {
	if id <= w.contig {
		return
	}
	w.sparse[id] = struct{}{}
	for {
		if _, ok := w.sparse[w.contig+1]; !ok {
			break
		}
		w.contig++
		delete(w.sparse, w.contig)
	}
	if len(w.sparse) > 4096 {
		min := uint64(1<<63 - 1)
		for k := range w.sparse {
			if k < min {
				min = k
			}
		}
		w.contig = min
		delete(w.sparse, min)
		for {
			if _, ok := w.sparse[w.contig+1]; !ok {
				break
			}
			w.contig++
			delete(w.sparse, w.contig)
		}
	}
}

// TestMarkMsgMatchesOracle drives the window and its oracle with the same id
// streams — in order, with gaps that close, gaps that never do, duplicates,
// and enough permanent gaps to trip the 4,096-entry force-advance — and
// requires the same state and the same answers after every id.
func TestMarkMsgMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, o := &msgWindow{}, &oracleWindow{sparse: map[uint64]struct{}{}}
		next, firstGap, steps := uint64(1), uint64(0), 0
		var held []uint64 // ids skipped for now, delivered later
		step := func(id uint64) {
			if w.has(id) != o.has(id) {
				t.Fatalf("seed %d: has(%d) = %v, oracle %v", seed, id, w.has(id), o.has(id))
			}
			w.mark(id)
			o.mark(id)
			if w.contig != o.contig || len(w.sparse) != len(o.sparse) {
				t.Fatalf("seed %d after %d: contig %d sparse %d, oracle %d and %d", seed, id, w.contig, len(w.sparse), o.contig, len(o.sparse))
			}
			if steps++; steps%97 != 0 {
				return // same size and same answers every step; same members now and then
			}
			for k := range o.sparse {
				if _, ok := w.sparse[k]; !ok {
					t.Fatalf("seed %d after %d: %d missing from sparse", seed, id, k)
				}
			}
		}
		n := 4000
		if seed%2 == 0 {
			n = 30000 // long enough for permanent gaps to overflow the sparse set
		}
		for i := 0; i < n; i++ {
			switch x := rng.Intn(100); {
			case x < 55: // in order
				step(next)
				next++
			case x < 70: // hold one back: a gap that closes later
				held = append(held, next)
				next++
			case x < 80 && len(held) > 0: // close a gap
				j := rng.Intn(len(held))
				step(held[j])
				held = append(held[:j], held[j+1:]...)
			case x < 90 && next > 1: // duplicate of something at or below next
				step(1 + uint64(rng.Int63n(int64(next))))
			case seed%2 == 0: // a permanent gap (message returned to sender)
				if firstGap == 0 {
					firstGap = next
				}
				next++
			}
		}
		if seed%2 == 0 && o.contig < firstGap {
			// Only the force-advance moves contig past an id never delivered.
			t.Fatalf("seed %d never reached the force-advance (contig %d, first gap %d)", seed, o.contig, firstGap)
		}
		if seed == 1 {
			// The common case never builds the map at all.
			in := &msgWindow{}
			for id := uint64(1); id <= 1000; id++ {
				in.mark(id)
			}
			if in.sparse != nil || in.contig != 1000 {
				t.Fatalf("in-order stream left contig=%d sparse=%v", in.contig, in.sparse)
			}
		}
	}
}
