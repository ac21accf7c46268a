// Conservative-lookahead sharding: a Coordinator owns N engines, one per
// shard of the simulated cluster, and synchronizes them with barrier
// windows. All shards run the window [B, B+W) in parallel (one worker
// goroutine per shard drives its engine: it alone fires the shard's events
// and resumes the shard's procs), then meet at a barrier where cross-shard
// events staged during the window are flushed into their destination
// engines and the next window begins.
//
// W is the lookahead: the caller guarantees that any event a shard posts to
// another shard while executing at local time t carries a timestamp >= t+W
// (for the network fabric, W is the minimum cross-shard wire latency — a
// packet cannot reach another shard's links faster than the switch hops in
// between, exactly how SimBricks synchronizes loosely-coupled component
// simulators). Events fired inside [B, B+W) therefore only ever post
// timestamps >= B+W, i.e. at or after the barrier, so no shard can observe
// an effect from a window it has already finished — conservative
// correctness with no rollback.
//
// Determinism: each staged event is tagged (time, srcShard, seq) with seq a
// per-source monotonic counter; the barrier flush sorts all staged events
// by that triple before inserting them, so destination engines assign their
// own sequence numbers in one reproducible order no matter how the OS
// scheduled the shard workers. Together with the fixed leaf-aligned shard
// assignment and per-shard PRNGs seeded from (seed, shard), a run is
// byte-reproducible for a given (seed, shard count).
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// xev is one staged cross-shard event: fn runs on the destination shard's
// engine at time at.
type xev struct {
	at  Time
	src int32
	dst int32
	seq uint64
	fn  func()
}

// xevOrder is the exchange order (time, srcShard, seq). The key is unique —
// seq counts one source's posts — so an unstable sort yields one order.
func xevOrder(a, z xev) int {
	if c := cmp.Compare(a.at, z.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, z.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, z.seq)
}

// Coordinator synchronizes a set of per-shard engines with conservative
// lookahead barriers. A coordinator with one shard degenerates to direct
// calls on the single engine — no workers, no barriers, no exchange — so a
// 1-shard run is byte-identical to a bare engine's. Those direct calls (in
// Now, RunUntil and Run) are the sanctioned N=1 special case: every cluster
// is built on a Coordinator whatever its shard count, so that nothing above
// this file has to ask.
type Coordinator struct {
	engines []*Engine
	window  Duration
	now     Time

	// staged[s] collects the events shard s posted during the current
	// window. Only shard s's worker goroutine appends (during its window)
	// and only the coordinator goroutine drains (at the barrier, after the
	// worker parked) — the run/done channel handshake orders the two.
	staged [][]xev
	seqs   []uint64
	merged []xev // barrier scratch

	runCh   []chan Time
	doneCh  []chan struct{}
	live    bool
	workers sync.WaitGroup // the live worker goroutines; Shutdown waits on it

	// Barrier-protocol counters, surfaced by ExchangeStats.
	barriers  uint64
	exchanged uint64
}

// shardSeed derives shard k's PRNG seed. Shard 0 uses the master seed
// unchanged so a 1-shard coordinator reproduces NewEngine(seed) exactly;
// higher shards get splitmix64-scrambled streams.
func shardSeed(seed int64, shard int) int64 {
	if shard == 0 {
		return seed
	}
	z := uint64(seed) + uint64(shard)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// NewCoordinator builds shards engines synchronized with the given
// lookahead window. lookahead must be positive for shards > 1.
func NewCoordinator(seed int64, shards int, lookahead Duration) *Coordinator {
	if shards < 1 {
		shards = 1
	}
	if shards > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("sim: coordinator needs a positive lookahead, got %v", lookahead))
	}
	c := &Coordinator{window: lookahead}
	for i := 0; i < shards; i++ {
		e := NewEngine(shardSeed(seed, i))
		e.coord, e.shard = c, i
		c.engines = append(c.engines, e)
		c.staged = append(c.staged, nil)
		c.seqs = append(c.seqs, 0)
		c.runCh = append(c.runCh, make(chan Time))
		c.doneCh = append(c.doneCh, make(chan struct{}))
	}
	return c
}

// Shards returns the number of shard engines.
func (c *Coordinator) Shards() int { return len(c.engines) }

// Engine returns shard i's engine.
func (c *Coordinator) Engine(i int) *Engine { return c.engines[i] }

// Now returns the coordinator's virtual time: the last barrier reached.
// Individual engines share this clock at every barrier.
func (c *Coordinator) Now() Time {
	if len(c.engines) == 1 {
		return c.engines[0].Now()
	}
	return c.now
}

// post stages a cross-shard event from the given source shard. Called (via
// Engine.PostRemote) only from the source shard's worker while it holds its
// window.
func (c *Coordinator) post(src, dst int, at Time, fn func()) {
	c.seqs[src]++
	c.staged[src] = append(c.staged[src], xev{at: at, src: int32(src), dst: int32(dst), seq: c.seqs[src], fn: fn})
}

// ensureWorkers starts the per-shard worker goroutines (idempotent). Each
// worker blocks for a window bound, runs its engine to it, and signals done.
func (c *Coordinator) ensureWorkers() {
	if c.live {
		return
	}
	c.live = true
	for i := range c.engines {
		c.workers.Add(1)
		go func(i int) {
			defer c.workers.Done()
			for b := range c.runCh[i] {
				c.engines[i].RunUntil(b)
				c.doneCh[i] <- struct{}{}
			}
		}(i)
	}
}

// nextBound picks the end of the next window, at most deadline. Nothing
// anywhere can fire before the earliest pending event, so the window
// extends to that bound plus one lookahead — idle stretches cost one
// barrier instead of thousands.
func (c *Coordinator) nextBound(deadline Time) Time {
	min := Never
	for _, e := range c.engines {
		if nb, ok := e.NextEventBound(); ok && nb < min {
			min = nb
		}
	}
	if min == Never {
		return deadline
	}
	b := min.Add(c.window)
	if lo := c.now.Add(c.window); b < lo {
		b = lo
	}
	if b > deadline {
		b = deadline
	}
	return b
}

// runWindow runs every shard to bound b in parallel and waits for all.
func (c *Coordinator) runWindow(b Time) {
	for i := range c.engines {
		c.runCh[i] <- b
	}
	for i := range c.engines {
		<-c.doneCh[i]
	}
	c.barriers++
}

// flush drains all staged cross-shard events into their destination
// engines in (time, srcShard, seq) order. Every staged event must carry a
// timestamp at or after the barrier b — the lookahead contract — or the
// run is non-causal and flush panics rather than silently corrupting it.
func (c *Coordinator) flush(b Time) {
	c.merged = c.merged[:0]
	for s := range c.staged {
		c.merged = append(c.merged, c.staged[s]...)
		c.staged[s] = c.staged[s][:0]
	}
	if len(c.merged) == 0 {
		return
	}
	slices.SortFunc(c.merged, xevOrder)
	for i := range c.merged {
		x := &c.merged[i]
		if x.at < b {
			panic(fmt.Sprintf("sim: lookahead violation: shard %d posted an event at %d before barrier %d (window %v too wide?)",
				x.src, x.at, b, c.window))
		}
		c.engines[x.dst].AfterFuncAt(x.at, x.fn)
		x.fn = nil
	}
	c.exchanged += uint64(len(c.merged))
}

// RunUntil advances every shard to time t in lookahead windows.
func (c *Coordinator) RunUntil(t Time) {
	if len(c.engines) == 1 {
		c.engines[0].RunUntil(t)
		c.now = t
		return
	}
	c.ensureWorkers()
	for c.now < t {
		b := c.nextBound(t)
		c.runWindow(b)
		c.flush(b)
		c.now = b
	}
}

// RunFor advances every shard d of virtual time past the last barrier.
func (c *Coordinator) RunFor(d Duration) { c.RunUntil(c.Now().Add(d)) }

// Stats returns the sum of every shard engine's activity counters
// (MaxPending sums the per-shard high-water marks).
func (c *Coordinator) Stats() Stats {
	var out Stats
	for _, e := range c.engines {
		s := e.Stats()
		out.Fired += s.Fired
		out.Scheduled += s.Scheduled
		out.Cancelled += s.Cancelled
		out.PoolHits += s.PoolHits
		out.PoolMisses += s.PoolMisses
		out.MaxPending += s.MaxPending
		out.Handoffs += s.Handoffs
	}
	return out
}

// ExchangeStats reports barrier-protocol activity: windows run and
// cross-shard events exchanged.
func (c *Coordinator) ExchangeStats() (barriers, exchanged uint64) {
	return c.barriers, c.exchanged
}

// Shutdown stops the worker goroutines, waits for them to exit, and kills
// every shard's procs. A second call finds nothing left to stop.
func (c *Coordinator) Shutdown() {
	if c.live {
		c.live = false
		for i := range c.runCh {
			close(c.runCh[i])
		}
		c.workers.Wait()
	}
	for _, e := range c.engines {
		e.Shutdown()
	}
}
