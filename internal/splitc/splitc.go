// Package splitc is a small one-sided communication library in the style of
// Split-C (the language the paper's time-shared workloads of §6.3 are
// written in): each rank exposes a heap that remote ranks read with Get and
// write with Put/Store, plus split-phase store synchronization and a
// barrier. Like the original, it is a thin veneer over Active Messages —
// remote accesses are served by handlers that run when the target polls.
package splitc

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Handler indices.
const (
	hGet      = 1
	hGetReply = 2
	hAck      = 4
	hStore    = 5
	hBarrier  = 6
)

// pollWait is the backed-off tick every blocking operation starts its wait
// from (each takes a copy).
var pollWait = core.Backoff{Base: sim.Microsecond, Cap: 50 * sim.Microsecond}

// Rank is one participant: an endpoint plus its exposed heap.
type Rank struct {
	w    *World
	rank int
	ep   *core.Endpoint
	node *hostos.Node

	// Heap is the globally addressable memory of this rank.
	Heap []byte

	nextReq  uint64
	getSlots map[uint64]*getSlot

	storesOut  int // store requests issued
	storesDone int // store acks received

	barrierSeen map[[2]int]bool
	barrierEp   int

	// CommTime accumulates time spent inside data-movement operations
	// (Get/Put/Store/StoreSync) — the §6.3 "time spent in communication"
	// metric: when an application communicates it should see full network
	// performance regardless of time-sharing.
	CommTime sim.Duration
	// SyncTime accumulates time inside Barrier, which includes waiting for
	// peers that the local schedulers have descheduled.
	SyncTime sim.Duration
}

type getSlot struct {
	data []byte
	done bool
}

// World is a set of ranks with mutually addressable heaps.
type World struct {
	Cluster *hostos.Cluster
	ranks   []*Rank
	running int
}

// NewWorld creates n ranks with heapSize-byte heaps; rank i runs on node
// nodes[i] (nil places rank i on node i). The ranks share the world's running
// count, so a cluster of more than one shard gets hostos.ErrSharded.
func NewWorld(c *hostos.Cluster, n, heapSize int, nodes []int) (*World, error) {
	if err := c.OneShard("splitc: world"); err != nil {
		return nil, err
	}
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	w := &World{Cluster: c}
	eps := make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		b := core.Attach(c.Nodes[nodes[i]])
		ep, err := b.NewEndpoint(core.Key(0xC0DE+i), n)
		if err != nil {
			return nil, err
		}
		eps[i] = ep
		w.ranks = append(w.ranks, &Rank{
			w:           w,
			rank:        i,
			ep:          ep,
			node:        c.Nodes[nodes[i]],
			Heap:        make([]byte, heapSize),
			getSlots:    make(map[uint64]*getSlot),
			barrierSeen: make(map[[2]int]bool),
		})
	}
	if err := core.MakeVirtualNetwork(eps); err != nil {
		return nil, err
	}
	for _, r := range w.ranks {
		r.install()
	}
	return w, nil
}

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Running reports how many launched ranks have not yet finished.
func (w *World) Running() int { return w.running }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Launch spawns fn on every rank.
func (w *World) Launch(fn func(p *sim.Proc, r *Rank)) {
	for _, r := range w.ranks {
		r := r
		w.running++
		r.node.Spawn(fmt.Sprintf("sc%d", r.rank), func(p *sim.Proc) {
			defer func() { w.running-- }()
			fn(p, r)
		})
	}
}

// Run spawns fn on every rank and advances the cluster until all return or
// maxTime passes; it reports completion.
func (w *World) Run(fn func(p *sim.Proc, r *Rank), maxTime sim.Duration) bool {
	w.Launch(fn)
	return w.Cluster.RunUntilDone(sim.Millisecond, w.Cluster.Now().Add(maxTime), func() bool { return w.running == 0 })
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.Size() }

// Node returns the rank's workstation.
func (r *Rank) Node() *hostos.Node { return r.node }

func (r *Rank) install() {
	r.ep.SetHandler(hGet, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		off, n, req := int(args[0]), int(args[1]), args[2]
		if off < 0 || off+n > len(r.Heap) {
			tok.Reply(p, hGetReply, [4]uint64{req, 1}) // out of range
			return
		}
		tok.ReplyBulk(p, hGetReply, r.Heap[off:off+n], [4]uint64{req, 0})
	})
	r.ep.SetHandler(hGetReply, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
		if slot, ok := r.getSlots[args[0]]; ok {
			slot.data = payload
			slot.done = true
		}
	})
	// Put and Store both write with hStore; Put waits for the ack.
	r.ep.SetHandler(hStore, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
		off := int(args[0])
		if off >= 0 && off+len(payload) <= len(r.Heap) {
			copy(r.Heap[off:], payload)
		}
		tok.Reply(p, hAck, [4]uint64{})
	})
	r.ep.SetHandler(hAck, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		r.storesDone++
	})
	r.ep.SetHandler(hBarrier, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		r.barrierSeen[[2]int{int(args[0]), int(args[1])}] = true
		tok.Reply(p, hAck+10, [4]uint64{}) // untracked ack
	})
	r.ep.SetHandler(hAck+10, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {})
	// Re-issue undeliverable one-sided operations (§3.2 error model).
	r.ep.SetReturnHandler(func(p *sim.Proc, _ nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		if dstIdx < 0 {
			return
		}
		switch h {
		case hGet, hBarrier:
			r.ep.Request(p, dstIdx, h, args)
		case hStore:
			r.ep.RequestBulk(p, dstIdx, h, payload, args)
		}
	})
}

// Get reads n bytes at offset off of rank dst's heap, blocking (and
// servicing incoming requests) until the data arrives.
func (r *Rank) Get(p *sim.Proc, dst, off, n int) ([]byte, error) {
	if n > nic.MTU {
		return nil, fmt.Errorf("splitc: get of %d bytes exceeds MTU", n)
	}
	t0 := p.Now()
	defer func() { r.CommTime += p.Now().Sub(t0) }()
	req := r.nextReq
	r.nextReq++
	slot := &getSlot{}
	r.getSlots[req] = slot
	if err := r.ep.Request(p, dst, hGet, [4]uint64{uint64(off), uint64(n), req}); err != nil {
		return nil, err
	}
	wait := pollWait
	for !slot.done {
		r.ep.PollBackoff(p, &wait)
	}
	delete(r.getSlots, req)
	return slot.data, nil
}

// Put writes data into rank dst's heap at off, blocking until acknowledged.
func (r *Rank) Put(p *sim.Proc, dst, off int, data []byte) error {
	t0 := p.Now()
	defer func() { r.CommTime += p.Now().Sub(t0) }()
	start := r.storesDone
	if err := r.store(p, dst, off, data); err != nil {
		return err
	}
	wait := pollWait
	for r.storesDone == start && r.storesOut > start {
		r.ep.PollBackoff(p, &wait)
	}
	return nil
}

// Store writes data into rank dst's heap at off without waiting; use
// StoreSync to wait for all outstanding stores (split-phase, as in
// Split-C's store/all_store_sync).
func (r *Rank) Store(p *sim.Proc, dst, off int, data []byte) error {
	return r.store(p, dst, off, data)
}

func (r *Rank) store(p *sim.Proc, dst, off int, data []byte) error {
	if len(data) > nic.MTU {
		return fmt.Errorf("splitc: store of %d bytes exceeds MTU", len(data))
	}
	r.storesOut++
	return r.ep.RequestBulk(p, dst, hStore, data, [4]uint64{uint64(off)})
}

// StoreSync blocks until every store issued by this rank has been written
// and acknowledged.
func (r *Rank) StoreSync(p *sim.Proc) {
	t0 := p.Now()
	defer func() { r.CommTime += p.Now().Sub(t0) }()
	wait := pollWait
	for r.storesDone < r.storesOut {
		r.ep.PollBackoff(p, &wait)
	}
}

// Barrier synchronizes all ranks (dissemination).
func (r *Rank) Barrier(p *sim.Proc) error {
	t0 := p.Now()
	defer func() { r.SyncTime += p.Now().Sub(t0) }()
	n := r.w.Size()
	ep := r.barrierEp
	r.barrierEp++
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := (r.rank + k) % n
		src := (r.rank - k + n) % n
		_ = src
		if err := r.ep.Request(p, dst, hBarrier, [4]uint64{uint64(ep), uint64(round)}); err != nil {
			return err
		}
		wait := pollWait
		for !r.barrierSeen[[2]int{ep, round}] {
			r.ep.PollBackoff(p, &wait)
		}
		delete(r.barrierSeen, [2]int{ep, round})
		round++
	}
	return nil
}
