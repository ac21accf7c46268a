package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"virtnet/internal/sim"
)

func build(t *testing.T, nhosts int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e, DefaultConfig(), nhosts)
	return e, n
}

// switchHops is the number of switches the route-0 path from src to dst
// crosses: one fewer than its links.
func switchHops(n *Network, src, dst NodeID) int {
	return max(len(n.path(src, dst, 0))-1, 0)
}

// distinctPaths counts the distinct link sequences path() returns from src
// to dst over route indices 0..limit-1.
func distinctPaths(n *Network, src, dst NodeID, limit int) int {
	seen := map[string]bool{}
	for r := 0; r < limit; r++ {
		var names []string
		for _, L := range n.path(src, dst, r) {
			names = append(names, L.name)
		}
		seen[strings.Join(names, " ")] = true
	}
	return len(seen)
}

// topoCases parameterize the generator tests over the three cluster scales
// the suite exercises: the paper's 100-host NOW, a mid-size 320-host
// five-pod tree, and the 1,024-host eight-pod tree the sharded engine
// targets.
var topoCases = []struct {
	name         string
	hosts        int
	cfg          Config
	leaves       int
	pods         int
	cores        int
	switches     int // leaves + pod spines + cores
	crossPodHops int // 0 when single-pod
}{
	{
		// 20 leaves + 5 spines = the paper's 25 switches.
		name: "100-host-now", hosts: 100, cfg: DefaultConfig(),
		leaves: 20, pods: 1, cores: 0, switches: 25,
	},
	{
		name: "320-host-5pod", hosts: 320,
		cfg: func() Config {
			c := DefaultConfig()
			c.HostsPerLeaf, c.Spines, c.LeavesPerPod = 8, 4, 8
			return c
		}(),
		leaves: 40, pods: 5, cores: 4, switches: 40 + 5*4 + 4, crossPodHops: 5,
	},
	{
		name: "1024-host-8pod", hosts: 1024,
		cfg: func() Config {
			c := DefaultConfig()
			c.HostsPerLeaf, c.Spines, c.LeavesPerPod, c.Cores = 8, 4, 16, 8
			return c
		}(),
		leaves: 128, pods: 8, cores: 8, switches: 128 + 8*4 + 8, crossPodHops: 5,
	},
}

func TestTopologyShape(t *testing.T) {
	for _, tc := range topoCases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			n := New(e, tc.cfg, tc.hosts)
			if n.NumHosts() != tc.hosts {
				t.Fatalf("NumHosts = %d", n.NumHosts())
			}
			if n.Leaves() != tc.leaves {
				t.Fatalf("leaves = %d, want %d", n.Leaves(), tc.leaves)
			}
			if n.npods != tc.pods {
				t.Fatalf("pods = %d, want %d", n.npods, tc.pods)
			}
			if n.ncores != tc.cores {
				t.Fatalf("cores = %d, want %d", n.ncores, tc.cores)
			}
			spinesTotal := tc.pods * tc.cfg.Spines
			if tc.pods == 1 {
				spinesTotal = tc.cfg.Spines
			}
			if n.TotalSpines() != spinesTotal {
				t.Fatalf("TotalSpines = %d, want %d", n.TotalSpines(), spinesTotal)
			}
			if got := n.Leaves() + spinesTotal + tc.cores; got != tc.switches {
				t.Fatalf("switches = %d, want %d", got, tc.switches)
			}
		})
	}
}

func TestMultiLevelPathHopsAndRoutes(t *testing.T) {
	for _, tc := range topoCases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			n := New(e, tc.cfg, tc.hosts)
			hpl := tc.cfg.HostsPerLeaf
			sameLeaf := NodeID(1)        // host 0's leaf-mate
			crossLeaf := NodeID(hpl)     // first host of leaf 1 (same pod)
			last := NodeID(tc.hosts - 1) // last host (last pod when podded)
			// Route indices past the distinct ones wrap onto them.
			limit := 2 * tc.cfg.Spines * max(tc.cores, 1)
			if got := len(n.path(0, 0, 0)); got != 0 {
				t.Fatalf("loopback path has %d links", got)
			}
			if got := switchHops(n, 0, sameLeaf); got != 1 {
				t.Fatalf("same-leaf hops = %d, want 1", got)
			}
			if got := switchHops(n, 0, crossLeaf); got != 3 {
				t.Fatalf("same-pod cross-leaf hops = %d, want 3", got)
			}
			if got := distinctPaths(n, 0, sameLeaf, limit); got != 1 {
				t.Fatalf("same-leaf routes = %d, want 1", got)
			}
			if got := distinctPaths(n, 0, crossLeaf, limit); got != tc.cfg.Spines {
				t.Fatalf("same-pod routes = %d, want %d", got, tc.cfg.Spines)
			}
			if tc.pods > 1 {
				if n.podOf(n.leafOf(0)) == n.podOf(n.leafOf(last)) {
					t.Fatalf("hosts 0 and %d should be in different pods", last)
				}
				if got := switchHops(n, 0, last); got != tc.crossPodHops {
					t.Fatalf("cross-pod hops = %d, want %d", got, tc.crossPodHops)
				}
				routes := tc.cfg.Spines * tc.cores
				if got := distinctPaths(n, 0, last, limit); got != routes {
					t.Fatalf("cross-pod routes = %d, want %d", got, routes)
				}
				// Every cross-pod route must deliver (each route picks a
				// distinct spine/core combination; all must be wired up).
				delivered := 0
				n.Attach(last, func(p *Packet) { delivered++ })
				for r := 0; r < routes; r++ {
					n.Send(&Packet{Src: 0, Dst: last, Size: 64}, r)
				}
				e.Run()
				if delivered != routes {
					t.Fatalf("cross-pod delivery: %d of %d routes delivered", delivered, routes)
				}
			}
		})
	}
}

func TestPathHops(t *testing.T) {
	_, n := build(t, 100)
	if got := len(n.path(0, 0, 0)); got != 0 {
		t.Fatalf("loopback path has %d links", got)
	}
	if got := switchHops(n, 0, 4); got != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", got)
	}
	if got := switchHops(n, 0, 99); got != 3 {
		t.Fatalf("cross-leaf hops = %d, want 3", got)
	}
}

func TestDeliveryLatencyUnloaded(t *testing.T) {
	e, n := build(t, 100)
	var at sim.Time
	n.Attach(99, func(p *Packet) { at = e.Now() })
	pkt := &Packet{Src: 0, Dst: 99, Size: 150}
	n.Send(pkt, 0)
	e.Run()
	// 4 links, 3 switches (+1 hop charge for the final deposit), 150 bytes
	// at 150 MB/s = 1000 ns tx. Expect 4*300 + 1000 = 2200 ns.
	want := sim.Time(4*300 + 1000)
	if at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	e, n := build(t, 100)
	var times []sim.Time
	n.Attach(1, func(p *Packet) { times = append(times, e.Now()) })
	// Two packets from host 0 to host 1 (same leaf): the host uplink is
	// serial, so deliveries must be one tx-time apart.
	for i := 0; i < 2; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Size: 1500}, 0)
	}
	e.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d packets", len(times))
	}
	tx := n.TxTime(1500)
	if gap := times[1].Sub(times[0]); gap != tx {
		t.Fatalf("delivery gap = %v, want %v (serialized)", gap, tx)
	}
}

func TestReceiverContentionSpreads(t *testing.T) {
	e, n := build(t, 100)
	count := 0
	n.Attach(0, func(p *Packet) { count++ })
	// 10 senders on different leaves all target host 0: the host-0 down
	// link is the bottleneck; aggregate delivery rate is one link.
	const size = 8192
	const per = 5
	for s := 1; s <= 10; s++ {
		src := NodeID(s * 5) // different leaves
		for i := 0; i < per; i++ {
			n.Send(&Packet{Src: src, Dst: 0, Size: size}, s)
		}
	}
	e.Run()
	if count != 50 {
		t.Fatalf("delivered %d, want 50", count)
	}
	elapsed := e.Now()
	minSerial := n.TxTime(size * 50)
	if elapsed < sim.Time(minSerial) {
		t.Fatalf("finished in %v < serial bound %v: receiver link not serializing", elapsed, minSerial)
	}
}

func TestMultiPathUsesDistinctSpines(t *testing.T) {
	_, n := build(t, 100)
	if r := distinctPaths(n, 0, 99, 10); r != 5 {
		t.Fatalf("routes = %d, want 5", r)
	}
	if r := distinctPaths(n, 0, 3, 10); r != 1 {
		t.Fatalf("same-leaf routes = %d, want 1", r)
	}
	// path() reuses a scratch buffer, so copy the spine hop out between calls.
	spine0 := n.path(0, 99, 0)[1]
	spine1 := n.path(0, 99, 1)[1]
	if spine0 == spine1 {
		t.Fatal("different routes share the same uplink spine")
	}
}

func TestDropProb(t *testing.T) {
	e := sim.NewEngine(5)
	cfg := DefaultConfig()
	cfg.DropProb = 1.0
	n := New(e, cfg, 10)
	got := 0
	n.Attach(1, func(p *Packet) { got++ })
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Size: 100}, 0)
	}
	e.Run()
	if got != 0 {
		t.Fatalf("delivered %d with DropProb=1", got)
	}
	if n.Dropped != 20 {
		t.Fatalf("Dropped = %d, want 20", n.Dropped)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	e, n := build(t, 4)
	var got *Packet
	n.Attach(2, func(p *Packet) { got = p })
	n.Send(&Packet{Src: 2, Dst: 2, Size: 64}, 0)
	e.Run()
	if got == nil {
		t.Fatal("loopback packet not delivered")
	}
	if e.Now() != sim.Time(switchLatency) {
		t.Fatalf("loopback latency = %d", e.Now())
	}
}

func TestInOrderPerRoute(t *testing.T) {
	e, n := build(t, 100)
	var seq []int
	n.Attach(99, func(p *Packet) { seq = append(seq, p.Payload.(int)) })
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Src: 0, Dst: 99, Size: 100 + 50*i, Payload: i}, 2)
	}
	e.Run()
	for i, v := range seq {
		if v != i {
			t.Fatalf("out-of-order delivery on fixed route: %v", seq)
		}
	}
}

// Property: every packet sent between valid hosts (no drops) is delivered,
// and delivery time is at least hops*switchLatency + txTime.
func TestDeliveryProperty(t *testing.T) {
	f := func(pairs []struct{ S, D uint8 }) bool {
		e := sim.NewEngine(9)
		n := New(e, DefaultConfig(), 30)
		delivered := 0
		sent := 0
		for h := 0; h < 30; h++ {
			n.Attach(NodeID(h), func(p *Packet) { delivered++ })
		}
		for _, pr := range pairs {
			src := NodeID(pr.S % 30)
			dst := NodeID(pr.D % 30)
			n.Send(&Packet{Src: src, Dst: dst, Size: 128}, int(pr.S))
			sent++
		}
		e.Run()
		return delivered == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: aggregate throughput through one link never exceeds link rate.
func TestLinkRateProperty(t *testing.T) {
	f := func(count8 uint8, size16 uint16) bool {
		count := int(count8%40) + 2
		size := int(size16%8000) + 100
		e := sim.NewEngine(11)
		n := New(e, DefaultConfig(), 10)
		last := sim.Time(0)
		n.Attach(1, func(p *Packet) { last = e.Now() })
		for i := 0; i < count; i++ {
			n.Send(&Packet{Src: 0, Dst: 1, Size: size}, 0)
		}
		e.Run()
		minTime := n.TxTime(size * count) // serial bound on shared links
		return last >= sim.Time(minTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSpineHotSwapDropsOnlyItsPaths(t *testing.T) {
	e, n := build(t, 100)
	delivered := 0
	n.Attach(99, func(p *Packet) { delivered++ })
	n.SetSpineDown(0, true)
	// Route 0 uses spine 0 (down); route 1 uses spine 1 (up).
	n.Send(&Packet{Src: 0, Dst: 99, Size: 100}, 0)
	n.Send(&Packet{Src: 0, Dst: 99, Size: 100}, 1)
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want exactly 1 (spine-0 path down)", delivered)
	}
	if n.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped)
	}
	// Swap the spine back in: route 0 works again.
	n.SetSpineDown(0, false)
	n.Send(&Packet{Src: 0, Dst: 99, Size: 100}, 0)
	e.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d after restore, want 2", delivered)
	}
}

func TestHostLinkHotSwap(t *testing.T) {
	e, n := build(t, 10)
	delivered := 0
	n.Attach(1, func(p *Packet) { delivered++ })
	n.SetHostLinkDown(1, true)
	n.Send(&Packet{Src: 0, Dst: 1, Size: 64}, 0)
	e.Run()
	if delivered != 0 {
		t.Fatal("delivered through a down host link")
	}
	n.SetHostLinkDown(1, false)
	n.Send(&Packet{Src: 0, Dst: 1, Size: 64}, 0)
	e.Run()
	if delivered != 1 {
		t.Fatal("not delivered after link restored")
	}
}

func TestAdmissionGateParksAndReleases(t *testing.T) {
	e, n := build(t, 10)
	open := false
	delivered := 0
	n.SetAdmission(1, func() bool { return open })
	n.Attach(1, func(p *Packet) { delivered++ })
	pk := &Packet{Src: 0, Dst: 1, Size: 100}
	n.Send(pk, 0)
	e.Run()
	if delivered != 0 {
		t.Fatal("delivered through a closed gate")
	}
	if !pk.Parked || n.Blocked(1) != 1 {
		t.Fatalf("packet not parked: parked=%v blocked=%d", pk.Parked, n.Blocked(1))
	}
	open = true
	n.Admit(1)
	e.Run()
	if delivered != 1 {
		t.Fatal("not delivered after gate opened")
	}
	if pk.Parked {
		t.Fatal("Parked flag not cleared on release")
	}
}

func TestControlPacketsBypassGate(t *testing.T) {
	e, n := build(t, 10)
	n.SetAdmission(1, func() bool { return false })
	delivered := 0
	n.Attach(1, func(p *Packet) { delivered++ })
	n.Send(&Packet{Src: 0, Dst: 1, Size: 16, Control: true}, 0)
	e.Run()
	if delivered != 1 {
		t.Fatal("control packet blocked by admission gate")
	}
}

func TestGatePreservesFIFO(t *testing.T) {
	e, n := build(t, 10)
	open := false
	var order []int
	n.SetAdmission(1, func() bool { return open })
	n.Attach(1, func(p *Packet) { order = append(order, p.Payload.(int)) })
	for i := 0; i < 5; i++ {
		n.Send(&Packet{Src: 0, Dst: 1, Size: 100, Payload: i}, 0)
	}
	e.Run()
	open = true
	n.Admit(1)
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("parked packets released out of order: %v", order)
		}
	}
}

// TestParkAdmitCyclesAllocNothing: a destination's wait queue keeps its
// storage as it drains, so once warm, packets that park behind a closed gate
// and are admitted when it opens cost no allocation — pooled packets and
// transit records included — and still leave in FIFO order.
func TestParkAdmitCyclesAllocNothing(t *testing.T) {
	e, n := build(t, 10)
	defer e.Shutdown()
	open := false
	var order []int
	n.SetAdmission(1, func() bool { return open })
	n.Attach(1, func(p *Packet) { order = append(order, p.Payload.(int)) })
	const parked = 5
	cycle := func() {
		order = order[:0]
		open = false
		for i := 0; i < parked; i++ {
			p := n.AllocPacket()
			p.Src, p.Dst, p.Size, p.Payload = 0, 1, 100, i
			n.Send(p, 0)
			p.Release() // the sender's handle; the network holds the transit one
		}
		if n.Blocked(1) != parked {
			t.Fatalf("blocked = %d, want %d", n.Blocked(1), parked)
		}
		open = true
		n.Admit(1)
		e.Run()
	}
	cycle() // warm: packet and transit pools, the queue's storage
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("a park/admit cycle allocates %.1f times, want 0", avg)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("parked packets released out of order: %v", order)
		}
	}
	if len(order) != parked || n.Blocked(1) != 0 {
		t.Fatalf("delivered %d of %d, %d still parked", len(order), parked, n.Blocked(1))
	}
}

func TestLocalityAPI(t *testing.T) {
	// Consecutive-host leaf (and pod) mapping at every scale the generator
	// supports.
	for _, tc := range topoCases {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			n := New(e, tc.cfg, tc.hosts)
			hpl := tc.cfg.HostsPerLeaf
			lpp := tc.cfg.LeavesPerPod
			for h := 0; h < tc.hosts; h++ {
				if got, want := n.LeafOf(NodeID(h)), h/hpl; got != want {
					t.Fatalf("LeafOf(%d) = %d, want %d", h, got, want)
				}
				wantPod := 0
				if tc.pods > 1 {
					wantPod = (h / hpl) / lpp
				}
				if got := n.podOf(n.leafOf(NodeID(h))); got != wantPod {
					t.Fatalf("pod of %d = %d, want %d", h, got, wantPod)
				}
			}
			// Boundary pairs derived from the config, not hardcoded.
			la, lb := NodeID(hpl-1), NodeID(hpl) // straddle the first leaf edge
			if n.LeafOf(0) != n.LeafOf(la) || n.LeafOf(la) == n.LeafOf(lb) {
				t.Fatalf("leaf boundary wrong at hosts %d|%d", la, lb)
			}
			lastLeafFirst := NodeID((tc.leaves - 1) * hpl)
			if n.LeafOf(lastLeafFirst) != n.LeafOf(NodeID(tc.hosts-1)) {
				t.Fatalf("last leaf should span %d..%d", lastLeafFirst, tc.hosts-1)
			}
			if n.LeafOf(NodeID(tc.hosts-1)) == n.LeafOf(0) {
				t.Fatalf("extremes should differ")
			}
			if tc.pods > 1 {
				pa, pb := NodeID(hpl*lpp-1), NodeID(hpl*lpp) // first pod edge
				if n.podOf(n.leafOf(0)) != n.podOf(n.leafOf(pa)) || n.podOf(n.leafOf(pa)) == n.podOf(n.leafOf(pb)) {
					t.Fatalf("pod boundary wrong at hosts %d|%d", pa, pb)
				}
			}
		})
	}
	// A partial last leaf still maps every host to a valid leaf.
	_, odd := build(t, 13)
	if odd.Leaves() != 3 {
		t.Fatalf("13 hosts: Leaves() = %d, want 3", odd.Leaves())
	}
	if odd.LeafOf(12) != 2 || odd.LeafOf(10) != 2 || odd.LeafOf(9) != 1 {
		t.Fatalf("partial leaf mapping wrong: LeafOf(12)=%d", odd.LeafOf(12))
	}
}
