// Package mpi is a small message-passing library layered on the virtual
// network Active Message interface — the analogue of the paper's MPICH port
// used for the NAS Parallel Benchmarks and Linpack (§6.2). It provides
// blocking tagged send/receive with an eager fragmentation protocol and the
// collectives the workloads need: barrier, broadcast, reduce, allreduce,
// all-to-all, and gather.
//
// Each rank owns one endpoint; NewWorld wires the endpoints into one virtual
// network using virtual node numbers (translation index = rank).
package mpi

import (
	"fmt"

	"virtnet/internal/coll"
	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// Handler indices on the rank endpoints.
const (
	hFrag     = 1 // message fragment
	hFragAck  = 2 // fragment reply (credit return)
	hProbe    = 3 // liveness probe (no-op request)
	hProbeAck = 4 // probe reply: the probed rank is alive
)

// AnyTag matches any tag in Recv.
const AnyTag = -1

type inMsg struct {
	src  int
	tag  int
	data []byte
}

type partialKey struct {
	src   int
	msgid uint64
}

type partial struct {
	tag   int
	data  []byte
	got   int
	total int
}

// Comm is one rank's communicator.
type Comm struct {
	w    *World
	rank int
	ep   *core.Endpoint
	node *hostos.Node

	nextID   map[int]uint64 // per-destination message ids
	partials map[partialKey]*partial
	// Completed messages are released to the matchable list strictly in
	// per-source msgid order (MPI's non-overtaking guarantee): a message
	// whose fragments complete early waits in stash until its predecessors
	// from the same source are delivered.
	stash       map[partialKey]*inMsg
	nextDeliver map[int]uint64
	complete    []*inMsg

	// nacks counts, per destination rank, consecutive fragments returned
	// with the transport's retries exhausted; crossing maxReissues declares
	// the destination dead. Receiving anything from a rank clears its count.
	nacks map[int]int
	// inColl is non-zero while a delegated collective is in flight; it arms
	// the abort-on-dead-peer checks in Recv and in core's blocking waits.
	inColl int

	// Bytes counts payload bytes sent (for workload accounting).
	BytesSent int64
	CommTime  sim.Duration // time spent inside Send/Recv/collectives
}

// World is a set of ranks spanning cluster nodes.
type World struct {
	Cluster *hostos.Cluster
	comms   []*Comm
	running int
	// dead is the set of ranks declared permanently unreachable (shared by
	// all ranks so one rank's discovery aborts everyone's collectives).
	dead map[int]bool
}

// NewWorld creates an n-rank world with rank i on cluster node nodes[i]
// (pass nil to place rank i on node i). Endpoint keys are derived from the
// world; all endpoints are wired into one virtual network. The ranks share
// the world's running count and dead set, so a cluster of more than one shard
// gets hostos.ErrSharded.
func NewWorld(c *hostos.Cluster, n int, nodes []int) (*World, error) {
	if err := c.OneShard("mpi: world"); err != nil {
		return nil, err
	}
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	if len(nodes) != n {
		return nil, fmt.Errorf("mpi: %d ranks but %d placements", n, len(nodes))
	}
	w := &World{Cluster: c}
	eps := make([]*core.Endpoint, n)
	for i := 0; i < n; i++ {
		node := c.Nodes[nodes[i]]
		b := core.Attach(node)
		ep, err := b.NewEndpoint(core.Key(0x5150+i), n)
		if err != nil {
			return nil, err
		}
		eps[i] = ep
		cm := &Comm{
			w:           w,
			rank:        i,
			ep:          ep,
			node:        node,
			nextID:      make(map[int]uint64),
			partials:    make(map[partialKey]*partial),
			stash:       make(map[partialKey]*inMsg),
			nextDeliver: make(map[int]uint64),
			nacks:       make(map[int]int),
		}
		w.comms = append(w.comms, cm)
	}
	if err := core.MakeVirtualNetwork(eps); err != nil {
		return nil, err
	}
	for _, cm := range w.comms {
		cm.install()
	}
	return w, nil
}

// Running reports how many launched ranks have not yet finished.
func (w *World) Running() int { return w.running }

// Launch spawns fn as rank r's process on its node.
func (w *World) Launch(fn func(p *sim.Proc, c *Comm)) {
	for _, cm := range w.comms {
		cm := cm
		w.running++
		cm.node.Spawn(fmt.Sprintf("rank%d", cm.rank), func(p *sim.Proc) {
			defer func() { w.running-- }()
			fn(p, cm)
		})
	}
}

// Run spawns fn on every rank and advances the cluster until all ranks
// return (or maxTime elapses). It reports whether all ranks completed.
func (w *World) Run(fn func(p *sim.Proc, c *Comm), maxTime sim.Duration) bool {
	w.Launch(fn)
	return w.Cluster.RunUntilDone(sim.Millisecond, w.Cluster.Now().Add(maxTime), func() bool { return w.running == 0 })
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return len(c.w.comms) }

// Node returns the workstation this rank runs on.
func (c *Comm) Node() *hostos.Node { return c.node }

// install registers the fragment handlers.
func (c *Comm) install() {
	c.ep.SetHandler(hFrag, func(p *sim.Proc, tok *core.Token, args [4]uint64, payload []byte) {
		src := int(args[3] >> 32)
		tag := int(int32(args[3] & 0xffffffff))
		msgid := args[0]
		offset := int(args[1])
		total := int(args[2])
		k := partialKey{src: src, msgid: msgid}
		pt, ok := c.partials[k]
		if !ok {
			pt = &partial{tag: tag, data: make([]byte, total), total: total}
			c.partials[k] = pt
		}
		delete(c.nacks, src) // traffic from src proves it alive
		copy(pt.data[offset:], payload)
		pt.got += len(payload)
		if pt.got >= pt.total {
			delete(c.partials, k)
			c.stash[k] = &inMsg{src: src, tag: pt.tag, data: pt.data}
			c.releaseInOrder(src)
		}
		tok.Reply(p, hFragAck, [4]uint64{})
	})
	c.ep.SetHandler(hFragAck, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {})
	// Liveness probes: a rank blocked in a collective receive sends these
	// toward the awaited source, so the return-to-sender machinery produces
	// a verdict even when the blocked rank has no data in flight toward the
	// suspect (a reduce tree's parent only *receives* from its children).
	c.ep.SetHandler(hProbe, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		tok.Reply(p, hProbeAck, args)
	})
	c.ep.SetHandler(hProbeAck, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		delete(c.nacks, int(args[0])) // the probed rank answered: alive
	})
	// Undeliverable fragments (returned after prolonged transport failure,
	// §3.2) are re-issued: message passing promises reliable delivery —
	// within a bounded budget. A permanent verdict (endpoint gone, key
	// revoked) or an exhausted budget of retries-exhausted returns declares
	// the destination rank dead instead of retrying forever; transient
	// verdicts (not resident, receive overrun) re-issue without limit.
	c.ep.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, dstIdx, h int, args [4]uint64, payload []byte) {
		if (h != hFrag && h != hProbe) || dstIdx < 0 {
			return
		}
		if c.w.dead[dstIdx] {
			return // already declared dead; drop
		}
		switch {
		case reason.Permanent(dstIdx):
			c.w.markDead(dstIdx)
			return
		case reason == nic.NackNone: // the NI's full retry schedule came up empty
			c.nacks[dstIdx]++
			if c.nacks[dstIdx] > maxReissues {
				c.w.markDead(dstIdx)
				return
			}
		}
		if h == hProbe {
			return // probes are not re-issued; the receive loop sends more
		}
		if len(payload) == 0 {
			c.ep.Request(p, dstIdx, hFrag, args)
			return
		}
		c.ep.RequestBulk(p, dstIdx, hFrag, payload, args)
	})
	// Abort core's flow-control waits when a collective can no longer
	// complete: blocked credit windows against a crashed peer never reopen.
	c.ep.SetWaitAbort(func() error {
		if c.inColl > 0 && len(c.w.dead) > 0 {
			return c.deadErr()
		}
		return nil
	})
}

// releaseInOrder moves stashed messages from src into the matchable list in
// msgid order.
func (c *Comm) releaseInOrder(src int) {
	for {
		k := partialKey{src: src, msgid: c.nextDeliver[src]}
		m, ok := c.stash[k]
		if !ok {
			return
		}
		delete(c.stash, k)
		c.nextDeliver[src]++
		c.complete = append(c.complete, m)
	}
}

// Send transmits data to rank dst with the given tag (>= 0), blocking until
// every fragment is accepted by the flow-control window.
func (c *Comm) Send(p *sim.Proc, dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("mpi: bad destination rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: tags must be >= 0 (got %d)", tag)
	}
	t0 := p.Now()
	defer func() { c.CommTime += p.Now().Sub(t0) }()
	msgid := c.nextID[dst]
	c.nextID[dst]++
	meta := uint64(c.rank)<<32 | uint64(uint32(tag))
	total := len(data)
	c.BytesSent += int64(total)
	if total == 0 {
		return c.ep.Request(p, dst, hFrag, [4]uint64{msgid, 0, 0, meta})
	}
	for off := 0; off < total; off += nic.MTU {
		end := off + nic.MTU
		if end > total {
			end = total
		}
		err := c.ep.RequestBulk(p, dst, hFrag, data[off:end],
			[4]uint64{msgid, uint64(off), uint64(total), meta})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeAfter is how long a collective receive stays silently blocked before
// it starts probing the awaited source for liveness. Collectives pass data
// in ms-scale steps, so a multi-hundred-ms silent stall is the signature of
// a dead peer, not a slow one.
const probeAfter = 250 * sim.Millisecond

// probe nudges the return-to-sender machinery toward src: a no-op request
// that either comes back acknowledged (src alive, nack budget reset) or
// returns undeliverable and feeds the death classification in the return
// handler. Skipped when no credit toward src is free — in-flight data
// already provides the same signal.
func (c *Comm) probe(p *sim.Proc, src int) {
	if src == c.rank || src < 0 || src >= c.Size() || c.w.dead[src] {
		return
	}
	if c.ep.Credits(src) <= 0 {
		return
	}
	c.ep.Request(p, src, hProbe, [4]uint64{uint64(src)})
}

// Recv blocks until a message from src with a matching tag (or AnyTag)
// arrives, and returns its payload. A zero-length message returns an empty
// (non-nil) slice.
func (c *Comm) Recv(p *sim.Proc, src, tag int) ([]byte, error) {
	t0 := p.Now()
	defer func() { c.CommTime += p.Now().Sub(t0) }()
	wait := core.Backoff{Base: sim.Microsecond, Cap: 100 * sim.Microsecond}
	nextProbe := p.Now().Add(probeAfter)
	for {
		for i, m := range c.complete {
			if m.src == src && (tag == AnyTag || m.tag == tag) {
				c.complete = append(c.complete[:i], c.complete[i+1:]...)
				if m.data == nil {
					return []byte{}, nil
				}
				return m.data, nil
			}
		}
		// Nothing matched yet: give up rather than hang if the wait can no
		// longer be satisfied — the source rank is dead, or any rank died
		// while this one is inside a collective (whose completion depends
		// transitively on every rank).
		if len(c.w.dead) > 0 {
			if c.inColl > 0 {
				return nil, c.deadErr()
			}
			if c.w.dead[src] {
				return nil, fmt.Errorf("mpi: recv from rank %d: %w", src, ErrUnreachable)
			}
		}
		if c.inColl > 0 && p.Now() >= nextProbe {
			c.probe(p, src)
			nextProbe = p.Now().Add(probeAfter)
		}
		c.ep.PollBackoff(p, &wait)
	}
}

// SendRecv performs an exchange with two peers: it sends data to dst and
// then receives one message from src, whose bytes its callers (halo
// exchanges that model traffic) do not need.
func (c *Comm) SendRecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag int) error {
	if err := c.Send(p, dst, sendTag, data); err != nil {
		return err
	}
	_, err := c.Recv(p, src, recvTag)
	return err
}

// Collective tags live above 1<<20 to stay clear of user tags.
const (
	tagGather = 1<<20 + 192
	tagA2A    = 1<<20 + 256
)

// Barrier, Bcast and Reduce are the collective engine's textbook schedules
// (dissemination barrier, binomial trees). Unlike the delegated Allreduce in
// coll.go they are not bracketed by beginColl: a dead rank aborts them only
// when it is the one being waited for.

// Barrier synchronizes all ranks (dissemination algorithm, O(log n) rounds).
func (c *Comm) Barrier(p *sim.Proc) error { return coll.Barrier(p, c) }

// Bcast distributes root's buffer to all ranks over a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(p *sim.Proc, root int, data []byte) ([]byte, error) {
	return coll.Bcast(p, c, root, data)
}

// Reduce combines per-rank float64 vectors with op at root (binomial tree).
// Non-root ranks return nil.
func (c *Comm) Reduce(p *sim.Proc, root int, vec []float64, op func(a, b float64) float64) ([]float64, error) {
	return coll.Reduce(p, c, root, vec, coll.Op(op))
}

// Allreduce combines per-rank vectors elementwise on every rank. It
// delegates to the collective engine (internal/coll): small vectors keep the
// historical binomial reduce+bcast schedule, large ones switch to
// bandwidth-optimal pipelined algorithms (Rabenseifner, topology-aware
// ring). Call AllreduceAlg to pin an algorithm.
func (c *Comm) Allreduce(p *sim.Proc, vec []float64, op func(a, b float64) float64) ([]float64, error) {
	return c.AllreduceAlg(p, vec, op, coll.Auto)
}

// Alltoall exchanges bufs[i] with every rank i and returns the received
// slices (out[i] is from rank i). bufs[c.rank] is copied locally. This is
// the bisection-stressing pattern of FT and IS (§6.2).
func (c *Comm) Alltoall(p *sim.Proc, bufs [][]byte) ([][]byte, error) {
	// CommTime accrues inside Send/Recv; no extra accounting here (it
	// would double-count).
	n := c.Size()
	out := make([][]byte, n)
	out[c.rank] = append([]byte(nil), bufs[c.rank]...)
	for round := 1; round < n; round++ {
		dst := (c.rank + round) % n
		src := (c.rank - round + n) % n
		if err := c.Send(p, dst, tagA2A+round, bufs[dst]); err != nil {
			return nil, err
		}
		got, err := c.Recv(p, src, tagA2A+round)
		if err != nil {
			return nil, err
		}
		out[src] = got
	}
	return out, nil
}

// Gather collects each rank's buffer at root; out[i] is rank i's data at
// the root, nil elsewhere.
func (c *Comm) Gather(p *sim.Proc, root int, data []byte) ([][]byte, error) {
	if c.rank != root {
		return nil, c.Send(p, root, tagGather, data)
	}
	out := make([][]byte, c.Size())
	out[root] = append([]byte(nil), data...)
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		got, err := c.Recv(p, i, tagGather)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}
