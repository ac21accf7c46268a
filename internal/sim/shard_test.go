package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestCoordinatorSingleShardBypass pins that a 1-shard coordinator drives
// its engine directly (no workers, no barriers) — the one sanctioned N=1
// special case, which keeps one-shard goldens byte-identical to a bare
// engine's.
func TestCoordinatorSingleShardBypass(t *testing.T) {
	before := settledGoroutines()
	c := NewCoordinator(1, 1, 0) // lookahead unused at 1 shard
	defer c.Shutdown()
	var fired []Time
	e := c.Engine(0)
	e.AfterFunc(10, func() { fired = append(fired, e.Now()) })
	e.AfterFunc(5, func() { fired = append(fired, e.Now()) })
	c.RunUntil(100)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v", fired)
	}
	if b, _ := c.ExchangeStats(); b != 0 {
		t.Fatalf("1-shard run crossed %d barriers", b)
	}
	if c.Now() != 100 {
		t.Fatalf("Now = %d", c.Now())
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("1-shard coordinator started a worker: %d goroutines, %d before", got, before)
	}
}

// Shutdown returns only once every worker goroutine has exited, and has
// nothing left to do the second time. Shard 0 runs on the caller's
// goroutine, so 4 shards have 3 workers.
func TestCoordinatorShutdownWaitsForWorkers(t *testing.T) {
	const W = 100
	// On one processor a worker gives way to the test goroutine only by
	// blocking or exiting (4 shards on one processor never poll), which
	// makes the count after Shutdown exact both ways: with the wait every
	// worker has gone, not merely run its last statement; without it none
	// of them has even been scheduled yet.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := settledGoroutines()
	c := NewCoordinator(1, 4, W)
	var landed [4]int // landed[s] is written by shard s's goroutine alone
	for s := 0; s < 4; s++ {
		e, peer := c.Engine(s), (s+1)%4
		e.AfterFunc(10, func() {
			e.PostRemote(peer, e.Now().Add(W), func() { landed[peer]++ })
		})
	}
	c.RunFor(10 * W)
	if landed != [4]int{1, 1, 1, 1} {
		t.Fatalf("cross-shard posts landed %v, want one on each shard", landed)
	}
	if got := runtime.NumGoroutine(); got != before+3 {
		t.Fatalf("%d goroutines mid-run, want %d (3 workers): the test measures nothing", got, before+3)
	}
	c.Shutdown()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after Shutdown, %d before NewCoordinator", got, before)
	}
	c.Shutdown()
	if c.live || runtime.NumGoroutine() != before {
		t.Fatal("a second Shutdown is not a no-op")
	}
}

// TestCoordinatorCrossShardOrdering posts remote events from both shards
// into shard 0 at identical timestamps and checks they apply in the
// deterministic (time, srcShard, seq) exchange order.
func TestCoordinatorCrossShardOrdering(t *testing.T) {
	const W = 100
	c := NewCoordinator(1, 2, W)
	defer c.Shutdown()
	var got []string
	var mu sync.Mutex
	rec := func(tag string) func() {
		return func() {
			mu.Lock()
			got = append(got, fmt.Sprintf("%s@%d", tag, c.Engine(0).Now()))
			mu.Unlock()
		}
	}
	// Shard 1 posts two events to shard 0; shard 0 posts one to itself at
	// the same instant (local events at a timestamp apply before the
	// barrier flush ever sees it, so it lands first).
	c.Engine(1).AfterFunc(10, func() {
		c.Engine(1).PostRemote(0, c.Engine(1).Now().Add(W+50), rec("r1-a"))
		c.Engine(1).PostRemote(0, c.Engine(1).Now().Add(W+50), rec("r1-b"))
	})
	c.Engine(0).AfterFuncAt(160, rec("local"))
	c.RunUntil(400)
	want := []string{"local@160", "r1-a@160", "r1-b@160"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("apply order = %v, want %v", got, want)
	}
	if _, x := c.ExchangeStats(); x != 2 {
		t.Fatalf("exchanged = %d, want 2", x)
	}
}

// TestCoordinatorLookaheadViolationPanics pins the guard: a cross-shard
// event timestamped inside the current window is a model bug and must
// panic, not silently reorder.
func TestCoordinatorLookaheadViolationPanics(t *testing.T) {
	const W = 100
	c := NewCoordinator(1, 2, W)
	defer func() {
		if recover() == nil {
			t.Fatalf("undershooting the lookahead window did not panic")
		}
		c.Shutdown()
	}()
	c.Engine(1).AfterFunc(10, func() {
		// at = now+1 < barrier+W: violates the contract.
		c.Engine(1).PostRemote(0, c.Engine(1).Now().Add(1), func() {})
	})
	c.RunUntil(400)
}

// TestCoordinatorDeterminism runs the same cross-shard ping-pong twice in
// each hand-off mode — on one processor, where every receive blocks, and on
// four, where 4 shards poll before they block — and requires identical
// event traces across all four runs: the double-run byte-identity CI leans
// on, and the proof that the hand-off mode moves nothing. The determinism
// contract is per shard: shards in the same window run concurrently, so a
// globally interleaved log would be schedule-dependent. Each shard's log is
// single-writer (its goroutine) and the barrier hand-off orders those
// writes before RunUntil returns.
func TestCoordinatorDeterminism(t *testing.T) {
	run := func(procs int) []string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		const W = 50
		c := NewCoordinator(7, 4, W)
		defer c.Shutdown()
		logs := make([][]string, 4)
		var ping func(from, to int, hop int)
		ping = func(from, to int, hop int) {
			e := c.Engine(to)
			logs[to] = append(logs[to], fmt.Sprintf("%d->%d@%d", from, to, e.Now()))
			if hop < 12 {
				next := (to + 1 + hop%3) % 4
				e.PostRemote(next, e.Now().Add(Duration(W+10+hop)), func() { ping(to, next, hop+1) })
			}
		}
		for s := 0; s < 4; s++ {
			s := s
			e := c.Engine(s)
			e.AfterFunc(Duration(5+s), func() { ping(s, s, 0) })
		}
		c.RunUntil(10 * W * 13) // past the last of each chain's 13 hops
		var log []string
		for _, l := range logs {
			log = append(log, l...)
		}
		return log
	}
	a := run(1)
	if len(a) != 4*13 {
		t.Fatalf("%d events logged, want every chain's 13", len(a))
	}
	for _, procs := range []int{1, 4, 4} {
		if b := run(procs); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("run at GOMAXPROCS(%d) diverged from GOMAXPROCS(1):\n%v\n%v", procs, a, b)
		}
	}
}

// A panic in a worker shard's event reaches RunUntil's caller, naming the
// shard and carrying the value, and leaves no worker mid-window: Shutdown
// still returns and takes every worker with it.
func TestCoordinatorShardPanicSurfaces(t *testing.T) {
	const W = 100
	sentinel := errors.New("sentinel")
	for _, shards := range []int{2, 4} {
		before := settledGoroutines()
		c := NewCoordinator(1, shards, W)
		last := shards - 1
		for s := 0; s < shards; s++ {
			e, peer := c.Engine(s), (s+1)%shards
			e.AfterFunc(10, func() { e.PostRemote(peer, e.Now().Add(W), func() {}) })
		}
		c.Engine(last).AfterFuncAt(5*W, func() { panic(sentinel) })
		got := func() (r any) {
			defer func() { r = recover() }()
			c.RunUntil(10 * W)
			return nil
		}()
		msg, _ := got.(string)
		if want := fmt.Sprintf("sim: shard %d: sentinel", last); !strings.HasPrefix(msg, want) {
			t.Fatalf("%d shards: RunUntil panicked with %q, want it to start %q", shards, msg, want)
		}
		if !strings.Contains(msg, "TestCoordinatorShardPanicSurfaces") {
			t.Fatalf("%d shards: the panic carries no stack of the worker:\n%s", shards, msg)
		}
		c.Shutdown()
		if got := settledGoroutines(); got != before {
			t.Fatalf("%d shards: %d goroutines after Shutdown, %d before NewCoordinator", shards, got, before)
		}
	}
}

// TestCoordinatorWindowStretching checks that idle stretches collapse into
// few barriers: two events W apart must not cost thousands of windows.
func TestCoordinatorWindowStretching(t *testing.T) {
	const W = 10
	c := NewCoordinator(1, 2, W)
	defer c.Shutdown()
	fired := 0
	c.Engine(0).AfterFuncAt(5, func() { fired++ })
	c.Engine(1).AfterFuncAt(100000, func() { fired++ })
	c.RunUntil(200000)
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	barriers, _ := c.ExchangeStats()
	// Naive W-stepping would need 20,000 barriers; stretching should get
	// by with a tiny number (one per occupied region plus slack).
	if barriers > 100 {
		t.Fatalf("window stretching ineffective: %d barriers", barriers)
	}
}

// TestCoordinatorCrossesFarIdleGaps checks that an idle gap of seconds to
// days costs a handful of barriers: a window ends one lookahead past the
// frame start NextEventBound gives, inside the event's 256^k ns frame, so
// each barrier narrows the frame by at least 8 bits. The counts are pinned:
// they follow from the 256 ns frame rule alone, whatever the wheel's
// geometry.
func TestCoordinatorCrossesFarIdleGaps(t *testing.T) {
	const W = 100
	for _, tc := range []struct {
		at       Time
		barriers uint64
	}{{1<<32 + 777, 2}, {1<<40 + 12_345, 2}, {1<<50 + 98_765, 4}} {
		at := tc.at
		c := NewCoordinator(1, 2, W)
		var fired []Time
		e := c.Engine(1)
		e.AfterFuncAt(at, func() { fired = append(fired, e.Now()) })
		c.RunUntil(at)
		barriers, _ := c.ExchangeStats()
		c.Shutdown()
		if len(fired) != 1 || fired[0] != at {
			t.Fatalf("event at %d fired at %v", at, fired)
		}
		if barriers != tc.barriers {
			t.Fatalf("event at %d took %d barriers, want %d", at, barriers, tc.barriers)
		}
	}
}

// TestNextEventBound pins the 256 ns frame rule: exact for an event in the
// clock's 256 ns frame, its frame start otherwise (never before the clock,
// never past the true head), however far out.
func TestNextEventBound(t *testing.T) {
	e := NewEngine(1)
	defer e.Shutdown()
	if _, ok := e.NextEventBound(); ok {
		t.Fatalf("empty engine reported a bound")
	}
	e.AfterFuncAt(37, func() {})
	if b, ok := e.NextEventBound(); !ok || b != 37 {
		t.Fatalf("level-0 bound = %d ok=%v, want exact 37", b, ok)
	}
	e.RunUntil(37)
	// A far event sits on a high wheel level: the bound is a frame start.
	far := e.Now().Add(1 << 40)
	e.AfterFuncAt(far, func() {})
	if b, ok := e.NextEventBound(); !ok || b > far || b < e.Now() {
		t.Fatalf("far bound = %d ok=%v, want now <= b <= %d", b, ok, far)
	}
	e.RunUntil(far)
	// An event 5,000 ns out leaves the clock's 256 ns frame but not its
	// 65,536 ns one: the bound is the start of its 256 ns frame.
	at := e.Now().Add(5000)
	e.AfterFuncAt(at, func() {})
	if b, ok := e.NextEventBound(); !ok || b != at&^255 {
		t.Fatalf("5,000 ns bound = %d ok=%v, want %d (now %d, event %d)", b, ok, at&^255, e.Now(), at)
	}
}

// TestShardSeedsDiffer pins per-shard PRNG decorrelation with shard 0
// keeping the master seed (the byte-identity anchor at 1 shard).
func TestShardSeedsDiffer(t *testing.T) {
	c := NewCoordinator(42, 4, 100)
	defer c.Shutdown()
	e0 := NewEngine(42)
	defer e0.Shutdown()
	if a, b := c.Engine(0).Rand().Uint64(), e0.Rand().Uint64(); a != b {
		t.Fatalf("shard 0 stream diverged from master seed: %d vs %d", a, b)
	}
	if a, b := c.Engine(1).Rand().Uint64(), c.Engine(2).Rand().Uint64(); a == b {
		t.Fatalf("shards 1 and 2 share a stream")
	}
}

// TestCoordinatorProcsAcrossShards runs procs on two shards that wake each
// other only through cross-shard posts: each shard's procs are resumed by
// that shard's worker alone, spawned from the test goroutine and shut down
// from it. Its value is under -race.
func TestCoordinatorProcsAcrossShards(t *testing.T) {
	const W = 100
	c := NewCoordinator(3, 2, W)
	conds := []*Cond{new(Cond), new(Cond)}
	rounds := [2]int{}
	for s := 0; s < 2; s++ {
		e, peer := c.Engine(s), 1-s
		for i := 0; i < 4; i++ {
			e.Spawn("pinger", func(p *Proc) {
				for {
					p.Sleep(Duration(10 + e.Rand().Intn(20)))
					e.PostRemote(peer, p.Now().Add(W), func() { conds[peer].Signal() })
					conds[s].Wait(p)
					rounds[s]++
				}
			})
		}
	}
	c.RunUntil(20000)
	c.Shutdown()
	if rounds[0] < 100 || rounds[1] < 100 {
		t.Fatalf("rounds = %v, want ≥ 100 on each shard", rounds)
	}
	if _, x := c.ExchangeStats(); x == 0 {
		t.Fatal("nothing crossed the exchange")
	}
	if h := c.Stats().Handoffs; h < 400 {
		t.Fatalf("%d hand-offs", h)
	}
}

// Once the barrier scratch has grown, staging, sorting and flushing
// cross-shard events allocates nothing.
func TestCoordinatorFlushAllocFree(t *testing.T) {
	const W = 100
	c := NewCoordinator(1, 2, W)
	defer c.Shutdown()
	fired := 0
	fn := func() { fired++ }
	cycle := func() {
		b := c.now.Add(W)
		for i := 0; i < 16; i++ {
			// Interleaved sources, descending times: the sort has work to do.
			c.post(i%2, 1-i%2, b.Add(Duration(16-i)), fn)
		}
		c.flush(b)
		for _, e := range c.engines {
			e.RunUntil(b.Add(W))
		}
		c.now = b.Add(W)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("stage → flush → fire cycle allocates %.2f times, want 0", avg)
	}
	if fired != 16*102 {
		t.Fatalf("fired %d of %d exchanged events", fired, 16*102)
	}
}

// A whole window at 2 shards — the hand-off to the worker, both shards'
// events, cross-shard posts each way, the worker's done and the flush —
// allocates nothing once the workers run and the exchange has grown.
func TestCoordinatorWindowAllocFree(t *testing.T) {
	const W = 100
	c := NewCoordinator(1, 2, W)
	defer c.Shutdown()
	var landed [2]int
	for s := 0; s < 2; s++ {
		e, peer := c.Engine(s), 1-s
		land := func() { landed[peer]++ }
		var tick *Timer
		tick = e.NewTimer(func() {
			e.PostRemote(peer, e.Now().Add(W), land)
			tick.Reset(W / 4)
		})
		tick.Reset(1)
	}
	c.RunFor(4 * W)
	if avg := testing.AllocsPerRun(100, func() { c.RunFor(W) }); avg != 0 {
		t.Fatalf("a 2-shard window allocates %.2f times, want 0", avg)
	}
	if landed[0] < 400 || landed[1] < 400 {
		t.Fatalf("cross-shard posts landed %v, want ≥ 400 on each shard", landed)
	}
}
