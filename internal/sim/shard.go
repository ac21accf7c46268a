// Conservative-lookahead sharding: a Coordinator owns N engines, one per
// shard of the simulated cluster, and synchronizes them with barrier
// windows. All shards run the window [B, B+W) in parallel, then meet at a
// barrier where cross-shard events staged during the window are flushed
// into their destination engines and the next window begins. One goroutine
// drives each engine — it alone fires the shard's events and resumes the
// shard's procs: shard 0's is the goroutine that called RunUntil, and each
// shard k > 0 has a worker goroutine of its own.
//
// Hand-off: the coordinator gives each worker its window bound over a
// one-slot channel, runs shard 0's window itself, then takes each worker's
// done from a one-slot channel of its own. When every shard can hold a
// processor (shards <= GOMAXPROCS), a receiving side polls its channel for
// up to pollBudget, yielding the processor every yieldEvery polls, before
// it blocks: a window is tens to hundreds of µs, and the peer's value
// usually arrives within that, without a scheduler wake. With fewer
// processors than shards a poller would take a processor that a shard
// needs, so every receive blocks at once.
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
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
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
	// window. Only shard s's goroutine appends (during its window) and only
	// the coordinator goroutine drains (at the barrier). Shard 0's
	// goroutine is the coordinator's, so its appends and the drain are in
	// program order; for shard k > 0 the coordinator's receive of the
	// worker's done orders the worker's appends before the drain.
	staged [][]xev
	seqs   []uint64
	merged []xev // barrier scratch

	// runCh[k] and doneCh[k] (k > 0; index 0 is unused) carry shard k's
	// window bound to its worker and the worker's done back, one slot each;
	// ensureWorkers makes them. A done is nil, or the panic the worker's
	// window raised.
	runCh   []chan Time
	doneCh  []chan *shardPanic
	live    bool
	spin    bool           // poll before blocking; fixed when the workers start
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
// Engine.PostRemote) only from the source shard's goroutine while it holds
// its window.
func (c *Coordinator) post(src, dst int, at Time, fn func()) {
	c.seqs[src]++
	c.staged[src] = append(c.staged[src], xev{at: at, src: int32(src), dst: int32(dst), seq: c.seqs[src], fn: fn})
}

// Poll budget of a hand-off receive: how long a spinning receiver polls
// before it blocks, and how many polls it makes between yields. The yield
// lets a peer that shares this processor's run queue run instead of being
// stranded behind the poller.
const (
	pollBudget = 50 * time.Microsecond
	yieldEvery = 64
)

// recv takes the next value from ch, reporting false once ch is closed.
// With spin set it polls first (see pollBudget); either way it ends in the
// same blocking receive.
func recv[T any](ch <-chan T, spin bool) (T, bool) {
	if spin {
		start := time.Now()
		for i := 1; ; i++ {
			select {
			case v, ok := <-ch:
				return v, ok
			default:
			}
			if i%yieldEvery == 0 {
				if time.Since(start) > pollBudget {
					break
				}
				runtime.Gosched()
			}
		}
	}
	v, ok := <-ch
	return v, ok
}

// shardPanic is a panic raised on a worker's shard, carried back to the
// coordinator with the worker's stack.
type shardPanic struct {
	val   any
	stack []byte
}

// runShard runs e to bound b, returning the panic that stopped it, if any.
func runShard(e *Engine, b Time) (p *shardPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &shardPanic{val: r, stack: debug.Stack()}
		}
	}()
	e.RunUntil(b)
	return nil
}

// ensureWorkers starts the worker goroutines of shards 1…N−1 (idempotent)
// and fixes the hand-off mode: spin only if every shard can hold a
// processor. Each worker takes a window bound, runs its engine to it, and
// hands back done.
func (c *Coordinator) ensureWorkers() {
	if c.live {
		return
	}
	c.live = true
	c.spin = len(c.engines) <= runtime.GOMAXPROCS(0)
	c.runCh = make([]chan Time, len(c.engines))
	c.doneCh = make([]chan *shardPanic, len(c.engines))
	for i := 1; i < len(c.engines); i++ {
		c.runCh[i] = make(chan Time, 1)
		c.doneCh[i] = make(chan *shardPanic, 1)
		c.workers.Add(1)
		go func(e *Engine, run <-chan Time, done chan<- *shardPanic, spin bool) {
			defer c.workers.Done()
			for {
				b, ok := recv(run, spin)
				if !ok {
					return
				}
				done <- runShard(e, b)
			}
		}(c.engines[i], c.runCh[i], c.doneCh[i], c.spin)
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

// runWindow runs every shard to bound b in parallel — shard 0 on this
// goroutine — and waits for all. It takes every worker's done before it
// returns or a panic leaves it, so no worker is mid-window once the caller
// sees either. A panic on a worker's shard re-panics here as "sim: shard
// k: value" with the worker's stack (the lowest such k); one on shard 0
// alone goes on as it was raised.
func (c *Coordinator) runWindow(b Time) {
	for i := 1; i < len(c.engines); i++ {
		c.runCh[i] <- b
	}
	defer c.collect()
	c.engines[0].RunUntil(b)
	c.barriers++
}

// collect takes every worker's done for the current window.
func (c *Coordinator) collect() {
	var first *shardPanic
	shard := 0
	for i := 1; i < len(c.engines); i++ {
		if p, _ := recv(c.doneCh[i], c.spin); p != nil && first == nil {
			first, shard = p, i
		}
	}
	if first != nil {
		panic(fmt.Sprintf("sim: shard %d: %v\n\n%s", shard, first.val, first.stack))
	}
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
		out.Cascaded += s.Cascaded
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
		for i := 1; i < len(c.runCh); i++ {
			close(c.runCh[i])
		}
		c.workers.Wait()
	}
	for _, e := range c.engines {
		e.Shutdown()
	}
}
