package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	in := "spine:1@0.2s+150ms,link:3-7@0.2s+0.5s,hostlink:4@1s,leaf:2@300ms+100ms," +
		"burst:all@100ms+400ms:0.8,burst:5@1ms,corrupt:0.001@0.2s+0.3s," +
		"reboot:node6@0.5s+2ms,crash:node9@1s+2s,crash:node3@1.5s"
	pl, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Events) != 10 {
		t.Fatalf("parsed %d events, want 10", len(pl.Events))
	}
	again, err := Parse(pl.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", pl.String(), err)
	}
	if !reflect.DeepEqual(pl.Events, again.Events) {
		t.Fatalf("round trip mismatch:\n %v\n %v", pl.Events, again.Events)
	}
	if got := pl.CrashTargets(); !reflect.DeepEqual(got, []int{3, 9}) {
		t.Fatalf("CrashTargets = %v, want [3 9]", got)
	}
	ev := pl.Events[1]
	if ev.Kind != UplinkDown || ev.A != 3 || ev.B != 7 ||
		ev.At != 200*sim.Millisecond || ev.Dur != 500*sim.Millisecond {
		t.Fatalf("link event parsed wrong: %+v", ev)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"spine:1",             // no time
		"spine@1s",            // no target
		"warp:1@1s",           // unknown kind
		"spine:x@1s",          // bad index
		"spine:1@5",           // missing unit
		"link:3@1s",           // not leaf-spine
		"corrupt:1.5@1s",      // probability out of range
		"crash:host9@1s",      // bad node syntax
		"burst:all@1s+1s:2.0", // burst prob out of range
		// These used to parse to a negative At or Dur, which panicked
		// Apply.
		"spine:0@1e10s",       // past sim.Duration's range
		"spine:0@NaNs",        // not a number
		"spine:0@Infs",        // infinite
		"spine:0@1s+1e300us",  // overflowing repair delay
		"spine:0@-Infms",      // negative
		"spine:0@4000000001s", // past maxDur, inside sim.Duration
		// These used to parse, and String printed them as another plan.
		"corrupt:NaN@1s",      // NaN corruption probability
		"burst:all@1s+1s:NaN", // NaN burst loss probability
		"burst:-3@1s",         // negative burst index, printed as "all"
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
	if pl, err := Parse("  "); err != nil || len(pl.Events) != 0 {
		t.Fatalf("empty plan: %v, %v", pl, err)
	}
	if pl, err := Parse("spine:0@4000000000s+4000000000s"); err != nil || pl.Events[0].At+pl.Events[0].Dur != 2*maxDur {
		t.Fatalf("the longest plan: %v, %v", pl, err)
	}
}

// FuzzParse holds Parse to its contract on any input: it never panics,
// every event it accepts is schedulable (At, Dur ≥ 0) with a probability in
// [0, 1], and the plan's String parses back to the same kinds and targets,
// with times within String's three-decimal rounding.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// The soaks' plans (cmd/vnstress) and the faults row's.
		"spine:0@0.1s+0.2s,burst:all@0.15s+0.3s:0.2,crash:node9@0.3s",
		"crash:node9@0.3s",
		"reboot:node0@5ms+1ms,reboot:node33@9ms+1ms,hostlink:2@14ms+2ms",
		"spine:0@200ms+150ms,crash:node14@500ms",
		"burst:all@120ms+80ms:0.05,hostlink:6@220ms+30ms,reboot:node7@300ms",
		"link:3-7@0.2s+0.5s,leaf:2@300ms+100ms,corrupt:0.001@0.2s+0.3s,crash:node9@1s+2s",
		// The edges: the longest times, String's rounding, the probability bounds.
		"spine:0@4e9s+4e9s,corrupt:1@999.9995us+0ns,burst:all@1.0005ms:1,corrupt:0@0.5ns",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pl, err := Parse(s)
		if err != nil {
			return
		}
		for _, ev := range pl.Events {
			if ev.At < 0 || ev.Dur < 0 || !(ev.P >= 0 && ev.P <= 1) {
				t.Fatalf("Parse(%q) accepted %+v", s, ev)
			}
		}
		again, err := Parse(pl.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, pl.String(), err)
		}
		if len(again.Events) != len(pl.Events) {
			t.Fatalf("%q: %d events, its String %q has %d", s, len(pl.Events), pl.String(), len(again.Events))
		}
		for i, ev := range pl.Events {
			ag := again.Events[i]
			if ag.Kind != ev.Kind || ag.A != ev.A || ag.B != ev.B || ag.P != ev.P ||
				!nearPrinted(ev.At, ag.At) || !nearPrinted(ev.Dur, ag.Dur) {
				t.Fatalf("%q: event %d is %+v, after String %q it is %+v", s, i, ev, pl.String(), ag)
			}
		}
	})
}

// nearPrinted reports whether got is d after d.String() and a re-parse:
// equal up to half a unit of String's third decimal, plus the nanosecond a
// float conversion may drop and the float64 rounding of very long times.
func nearPrinted(d, got sim.Duration) bool {
	unit := sim.Duration(0) // below a microsecond String prints whole nanoseconds
	switch {
	case d >= sim.Second:
		unit = sim.Second
	case d >= sim.Millisecond:
		unit = sim.Millisecond
	case d >= sim.Microsecond:
		unit = sim.Microsecond
	}
	diff := got - d
	if diff < 0 {
		diff = -diff
	}
	return diff <= unit/2000+1+d>>48
}

// harness is a 2-node request/reply pair: a server echoing handler 1 (on
// node 1 unless harnessOn says otherwise), a client on node 0 recording
// per-id replies and returns.
type harness struct {
	c       *hostos.Cluster
	client  *core.Endpoint
	replies map[uint64]int
	returns int
	sent    int
}

func newHarness(t *testing.T, nodes int, seed int64) *harness {
	t.Helper()
	return harnessOn(t, hostos.NewCluster(seed, nodes, hostos.DefaultClusterConfig()), 1)
}

// harnessOn builds the pair on c with the server on node srv.
func harnessOn(t *testing.T, c *hostos.Cluster, srv int) *harness {
	t.Helper()
	t.Cleanup(c.Shutdown)
	h := &harness{c: c, replies: make(map[uint64]int)}

	sb := core.Attach(c.Nodes[srv])
	server, err := sb.NewEndpoint(77, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.SetHandler(1, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		_ = tok.Reply(p, 2, args)
	}); err != nil {
		t.Fatal(err)
	}
	c.Nodes[srv].Spawn("server", func(p *sim.Proc) {
		for {
			server.Poll(p)
			p.Sleep(10 * sim.Microsecond)
		}
	})

	cb := core.Attach(c.Nodes[0])
	cl, err := cb.NewEndpoint(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetHandler(2, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
		h.replies[args[0]]++
	})
	cl.SetReturnHandler(func(p *sim.Proc, reason nic.NackReason, _, _ int, args [4]uint64, _ []byte) {
		h.returns++
	})
	if err := cl.Map(0, server.Name(), 77); err != nil {
		t.Fatal(err)
	}
	h.client = cl
	return h
}

// drive sends n requests spaced by gap, then keeps polling.
func (h *harness) drive(n int, gap sim.Duration) {
	h.c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		for id := 1; id <= n; id++ {
			if err := h.client.Request(p, 0, 1, [4]uint64{uint64(id)}); err != nil {
				return
			}
			h.sent++
			p.Sleep(gap)
		}
		for {
			h.client.Poll(p)
			p.Sleep(20 * sim.Microsecond)
		}
	})
}

// fingerprint captures everything observable about a run.
func (h *harness) fingerprint() string {
	return fmt.Sprintf("sent=%d replies=%v returns=%d t=%d\nnet drops=%d corrupt=%d\n%s",
		h.sent, h.replies, h.returns, int64(h.c.Now()),
		h.c.ShardNet(0).Dropped, h.c.ShardNet(0).Corrupted, netsim.RenderLinkCounters(h.c.ShardNet(0).PerLinkCounters(), false))
}

// The full fault matrix (burst loss, corruption, a spine flap, an uplink
// flap, a firmware reboot) must leave user-level delivery exactly-once and
// replay bit-identically under the same seed.
func TestFaultMatrixDeterministicAndExactlyOnce(t *testing.T) {
	const plan = "burst:all@0.5ms+6ms:0.6,corrupt:0.05@1ms+4ms,spine:1@2ms+2ms," +
		"link:0-2@1ms+1ms,reboot:node1@4ms+2ms"
	const n = 150
	run := func() (*harness, string) {
		h := newHarness(t, 3, 42)
		pl, err := Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		pl.Apply(h.c)
		h.drive(n, 40*sim.Microsecond)
		h.c.RunFor(2 * sim.Second)
		return h, h.fingerprint()
	}
	h1, fp1 := run()
	_, fp2 := run()
	if fp1 != fp2 {
		t.Fatalf("same seed, same plan, different runs:\n--- run1\n%s\n--- run2\n%s", fp1, fp2)
	}
	if h1.sent != n {
		t.Fatalf("client sent %d/%d", h1.sent, n)
	}
	for id := uint64(1); id <= n; id++ {
		if h1.replies[id] != 1 {
			t.Fatalf("id %d got %d replies, want exactly 1 (returns=%d)", id, h1.replies[id], h1.returns)
		}
	}
	if h1.returns != 0 {
		t.Fatalf("transient faults must not surface returns, got %d", h1.returns)
	}
	if h1.c.ShardNet(0).Corrupted == 0 {
		t.Fatal("corruption fault never fired")
	}
	if h1.c.Nodes[1].NIC.C.Get("nic.reboot") != 1 {
		t.Fatal("reboot fault never fired")
	}
	if h1.c.Nodes[1].NIC.C.Get("rx.crc_drop") == 0 {
		t.Fatal("no corrupted packet was CRC-discarded at an NI")
	}
}

// A node crash is a permanent failure: every message the client sent but
// the server never answered must come back through the return handler, and
// nothing may be answered twice or hang.
func TestNodeCrashReturnsUnansweredToSender(t *testing.T) {
	h := newHarness(t, 3, 7)
	pl, err := Parse("crash:node1@3ms")
	if err != nil {
		t.Fatal(err)
	}
	pl.Apply(h.c)
	const n = 100
	h.drive(n, 50*sim.Microsecond)
	h.c.RunFor(2 * sim.Second)

	if !h.c.Nodes[1].Crashed() {
		t.Fatal("crash fault never fired")
	}
	if h.sent != n {
		t.Fatalf("client stopped sending at %d/%d", h.sent, n)
	}
	answered := 0
	for id, k := range h.replies {
		if k != 1 {
			t.Fatalf("id %d got %d replies", id, k)
		}
		answered++
	}
	if answered == 0 {
		t.Fatal("no request was answered before the crash")
	}
	if h.returns == 0 {
		t.Fatal("no request was returned to sender after the crash")
	}
	// §3.2's guarantee is answered-or-returned from the transport's point of
	// view: a request the dying node had already accepted (ACKed) is lost
	// with the node and cannot be returned. Those losses are bounded by the
	// sender's flow-control window, and each one holds a credit forever —
	// which is exactly the signal the health monitor layer acts on.
	depth := h.c.Nodes[0].NIC.Config().RecvQDepth
	lost := n - answered - h.returns
	if lost < 0 {
		t.Fatalf("answered %d + returned %d > sent %d: duplicate outcome", answered, h.returns, n)
	}
	if lost > depth {
		t.Fatalf("%d messages unaccounted, want <= window %d", lost, depth)
	}
	if got := h.client.Credits(0); got != depth-lost {
		t.Fatalf("credits = %d, want %d (window %d minus %d lost-in-crash)", got, depth-lost, depth, lost)
	}
}

// A crashed node restarts cold: the fabric link comes back and unrelated
// traffic flows again (endpoint state is gone by design).
func TestCrashRestartBringsLinkBack(t *testing.T) {
	h := newHarness(t, 3, 9)
	pl, err := Parse("crash:node2@1ms+5ms")
	if err != nil {
		t.Fatal(err)
	}
	pl.Apply(h.c)
	h.drive(50, 30*sim.Microsecond)
	h.c.RunFor(1 * sim.Second)
	if h.c.Nodes[2].Crashed() {
		t.Fatal("node 2 never restarted")
	}
	// Traffic between nodes 0 and 1 was never disturbed.
	for id := uint64(1); id <= 50; id++ {
		if h.replies[id] != 1 {
			t.Fatalf("id %d got %d replies, want 1", id, h.replies[id])
		}
	}
	if h.c.Nodes[2].NIC.C.Get("nic.restart") != 1 {
		t.Fatal("restart never counted")
	}
}

// A leaf outage (the one fault kind RandomPlan never draws) isolates every
// host on the leaf until repair, on every shard's network replica: the
// leaf's links — and only they — drop traffic while it is down, each replica
// drops a probe sent through it mid-outage, and a request stream across the
// leaf completes exactly once after repair with nothing returned.
func TestLeafOutageDropsThenHeals(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// 10 hosts: leaf 0 holds hosts 0-4 (the client), leaf 1 hosts
			// 5-9 (the server), and with two shards each leaf is a shard.
			c := hostos.NewShardedCluster(3, 10, shards, hostos.DefaultClusterConfig())
			h := harnessOn(t, c, 7)
			pl, err := Parse("leaf:0@1ms+2ms")
			if err != nil {
				t.Fatal(err)
			}
			pl.Apply(c)
			// Each replica probes the leaf mid-outage from idle host 4 toward
			// an idle host it owns, so the probe's whole path is charged on
			// that replica; a drop on host 4's access link is the probe's.
			// The targets are crashed, which takes their own access links
			// down: a probe the fault missed dies there, visibly off leaf 0,
			// instead of reaching a live NI.
			for s, dst := range []netsim.NodeID{3, 8}[:c.Shards()] {
				c.Nodes[dst].Crash()
				net, probe := c.ShardNet(s), &netsim.Packet{Src: 4, Dst: dst, Size: 64, Control: true}
				c.ShardEngine(s).AfterFunc(2*sim.Millisecond, func() { net.Send(probe, 0) })
			}
			const n = 150
			h.drive(n, 40*sim.Microsecond)

			onLeaf0 := func(name string) bool {
				for i := 0; i < 5; i++ {
					if name == fmt.Sprintf("h%d->leaf", i) || name == fmt.Sprintf("leaf->h%d", i) {
						return true
					}
				}
				return strings.HasPrefix(name, "leaf0->") || strings.HasSuffix(name, "->leaf0")
			}
			dropped := func() (leaf0 int64) {
				for _, lc := range c.Fab.PerLinkCounters() {
					if lc.Dropped > 0 && !onLeaf0(lc.Name) {
						t.Fatalf("link %s dropped %d packets; only leaf 0 was down", lc.Name, lc.Dropped)
					}
					leaf0 += lc.Dropped
				}
				return leaf0
			}
			c.RunUntil(sim.Time(0).Add(3 * sim.Millisecond))
			during := dropped()
			if during <= int64(c.Shards()) {
				t.Fatalf("leaf 0's links dropped %d packets during the outage (%d of them probes)", during, c.Shards())
			}
			for s := 0; s < c.Shards(); s++ {
				for _, lc := range c.ShardNet(s).PerLinkCounters() {
					if lc.Name == "h4->leaf" && lc.Dropped != 1 {
						t.Fatalf("shard %d's replica dropped %d probes on %s, want 1: the leaf fault did not reach it", s, lc.Dropped, lc.Name)
					}
				}
			}
			c.RunFor(2 * sim.Second)
			if after := dropped(); after != during {
				t.Fatalf("%d drops after the repair", after-during)
			}
			if h.sent != n || h.returns != 0 {
				t.Fatalf("sent %d/%d, %d returned; a repaired outage must be masked", h.sent, n, h.returns)
			}
			for id := uint64(1); id <= n; id++ {
				if h.replies[id] != 1 {
					t.Fatalf("id %d got %d replies, want exactly 1", id, h.replies[id])
				}
			}
		})
	}
}
