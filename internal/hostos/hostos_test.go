package hostos

import (
	"testing"
	"testing/quick"

	"virtnet/internal/netsim"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

func newTestCluster(t *testing.T, n int, mod func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig()
	if mod != nil {
		mod(&cfg)
	}
	c := NewCluster(1, n, cfg)
	t.Cleanup(c.Shutdown)
	return c
}

// sendVia posts a raw send descriptor through a segment, mimicking what the
// core library does (fault if non-resident, then enqueue + post).
func sendVia(c *Cluster, p *sim.Proc, node int, seg *Segment, d *nic.SendDesc) {
	drv := c.Nodes[node].Driver
	if !seg.Resident() {
		drv.WriteFault(p, seg)
	}
	d.SrcEP = seg.EP.ID
	seg.EP.SendQ.Push(d)
	c.Nodes[node].NIC.PostSend()
}

func TestWriteFaultTriggersAsyncRemap(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	var faultReturned, becameResident sim.Time
	seg := c.Nodes[0].Driver.CreateEndpoint(1)
	if seg.State != OnHostRO {
		t.Fatalf("initial state = %v, want on-host r/o", seg.State)
	}
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		c.Nodes[0].Driver.WriteFault(p, seg)
		faultReturned = p.Now()
		for !seg.Resident() {
			seg.Cond.Wait(p)
		}
		becameResident = p.Now()
	})
	c.RunFor(50 * sim.Millisecond)
	if seg.State != OnNIC {
		t.Fatalf("state = %v, want on-nic", seg.State)
	}
	// The fault must return quickly (on-host r/w state) while the actual
	// remap happens later in the background.
	if faultReturned >= becameResident {
		t.Fatalf("fault blocked until residency: fault=%v resident=%v", faultReturned, becameResident)
	}
	if faultReturned > sim.Time(200*sim.Microsecond) {
		t.Fatalf("write fault took %v; should be asynchronous", faultReturned)
	}
}

func TestDisableHostRWBlocksFault(t *testing.T) {
	c := newTestCluster(t, 2, func(cc *ClusterConfig) { cc.OS.DisableHostRW = true })
	seg := c.Nodes[0].Driver.CreateEndpoint(1)
	var faultReturned sim.Time
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		c.Nodes[0].Driver.WriteFault(p, seg)
		faultReturned = p.Now()
	})
	c.RunFor(50 * sim.Millisecond)
	if !seg.Resident() {
		t.Fatal("endpoint never became resident")
	}
	// With the original design the fault blocks for the full remap
	// (driver costs + SBUS upload), far longer than the fault cost alone.
	if faultReturned < sim.Time(500*sim.Microsecond) {
		t.Fatalf("fault returned at %v; expected it to block for the remap", faultReturned)
	}
}

func TestArrivalMakesEndpointResident(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)

	c.Nodes[0].Spawn("sender", func(p *sim.Proc) {
		sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 2, Handler: 1})
	})
	c.RunFor(100 * sim.Millisecond)
	if dst.State != OnNIC {
		t.Fatalf("receiver endpoint state = %v, want on-nic (proxy fault)", dst.State)
	}
	if dst.EP.RecvQ.Len() != 1 {
		t.Fatalf("message not delivered after proxy remap")
	}
	if c.Nodes[1].Driver.C.Get("remap.ni_request") == 0 {
		t.Fatal("NI never requested residency")
	}
}

func TestReplacementEvictsWhenFramesFull(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	nFrames := c.Nodes[0].NIC.Config().Frames
	segs := make([]*Segment, 0, nFrames+4)
	for i := 0; i < nFrames+4; i++ {
		segs = append(segs, drv.CreateEndpoint(uint64(i)))
	}
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		for _, s := range segs {
			drv.WriteFault(p, s)
			for !s.Resident() {
				s.Cond.Wait(p)
			}
		}
	})
	c.RunFor(500 * sim.Millisecond)
	resident := 0
	for _, s := range segs {
		if s.Resident() {
			resident++
		}
	}
	if resident != nFrames {
		t.Fatalf("resident = %d, want exactly %d frames", resident, nFrames)
	}
	if drv.C.Get("remap.evict") < 4 {
		t.Fatalf("evictions = %d, want >= 4", drv.C.Get("remap.evict"))
	}
	// Evicted endpoints must be back to on-host r/o.
	for _, s := range segs {
		if !s.Resident() && s.State != OnHostRO {
			t.Fatalf("evicted endpoint in state %v", s.State)
		}
	}
}

func TestPageOutAndPageIn(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	seg := drv.CreateEndpoint(1)
	if err := drv.PageOut(seg); err != nil {
		t.Fatal(err)
	}
	if seg.State != OnDisk {
		t.Fatalf("state = %v, want on-disk", seg.State)
	}
	var faultDone sim.Time
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		drv.WriteFault(p, seg)
		faultDone = p.Now()
	})
	c.RunFor(100 * sim.Millisecond)
	if seg.State != OnNIC {
		t.Fatalf("state = %v, want on-nic after fault+remap", seg.State)
	}
	// Page-in cost must have been charged synchronously.
	if faultDone < sim.Time(pageInCost) {
		t.Fatalf("fault returned at %v, before page-in completed", faultDone)
	}
}

func TestPageOutResidentFails(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	seg := drv.CreateEndpoint(1)
	c.Nodes[0].Spawn("app", func(p *sim.Proc) { drv.WriteFault(p, seg) })
	c.RunFor(50 * sim.Millisecond)
	if !seg.Resident() {
		t.Fatal("setup: endpoint not resident")
	}
	if err := drv.PageOut(seg); err == nil {
		t.Fatal("PageOut of resident endpoint succeeded")
	}
}

func TestFreeSynchronizesWithNIC(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)
	freed := false
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		// Send a few messages then free immediately: the free must quiesce.
		for i := 0; i < 4; i++ {
			sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 2, Handler: 1})
		}
		c.Nodes[0].Driver.Free(p, src)
		freed = true
	})
	c.RunFor(200 * sim.Millisecond)
	if !freed {
		t.Fatal("Free never completed")
	}
	if _, ok := c.Nodes[0].NIC.Endpoint(src.EP.ID); ok {
		t.Fatal("endpoint still registered after free")
	}
	if c.Nodes[0].NIC.FreeFrames() != c.Nodes[0].NIC.Config().Frames {
		t.Fatal("frame leaked by free")
	}
}

func TestStaleRequestAfterFreeIgnored(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)
	dstID := dst.EP.ID

	// Free the destination, then deliver traffic addressed to it: the NI's
	// RequestResident (if any) and delivery must resolve without a remap of
	// the freed endpoint, returning the message to the sender.
	c.Nodes[1].Spawn("freeer", func(p *sim.Proc) {
		c.Nodes[1].Driver.Free(p, dst)
	})
	c.RunFor(10 * sim.Millisecond)
	c.Nodes[0].Spawn("sender", func(p *sim.Proc) {
		sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dstID, Key: 2, Handler: 1})
	})
	c.RunFor(100 * sim.Millisecond)
	if src.EP.RepQ.Len() != 1 {
		t.Fatalf("message to freed endpoint not returned to sender")
	}
	if got := c.Nodes[1].Driver.C.Get("remap.load"); got != 0 {
		t.Fatalf("freed endpoint was remapped %d times", got)
	}
}

func TestNotifyWakesBlockedThread(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)
	dst.EP.EventArmed = true

	var woke sim.Time
	c.Nodes[1].Spawn("server", func(p *sim.Proc) {
		for dst.EP.PendingRecvs() == 0 {
			dst.Cond.Wait(p)
		}
		woke = p.Now()
	})
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 2, Handler: 1})
	})
	c.RunFor(200 * sim.Millisecond)
	if woke == 0 {
		t.Fatal("server thread never woke")
	}
	if woke < sim.Time(5*sim.Millisecond) {
		t.Fatal("server woke before the message was sent")
	}
}

// A communication event — Notify, the kernel path's delay, the broadcast that
// wakes the blocked thread and the bundle hook — allocates nothing: the
// scheduled callback is built once per segment.
func TestNotifyAllocFree(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	drv := c.Nodes[0].Driver
	seg := drv.CreateEndpoint(1)
	woke, hooked := 0, 0
	seg.OnEvent = func() { hooked++ }
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for {
			seg.Cond.Wait(p)
			woke++
		}
	})
	cycle := func() {
		drv.Notify(seg.EP)
		c.RunFor(2 * notifyCost)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("notify → fire → broadcast allocates %.2f times, want 0", avg)
	}
	if woke != 102 || hooked != 102 {
		t.Errorf("%d wakes, %d hook calls in 102 events", woke, hooked)
	}
}

// A forced remap cycle on a full 8-frame NI — a residency request for the
// one non-resident endpoint, the victim's unload and the load — allocates
// nothing: the remap machine reuses its one timer and its one driver
// command, whose completion was bound once.
func TestRemapCycleAllocs(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	drv := c.Nodes[0].Driver
	frames := c.Nodes[0].NIC.Config().Frames
	if frames != 8 {
		t.Fatalf("NI has %d frames, want 8", frames)
	}
	segs := make([]*Segment, frames+1)
	for i := range segs {
		segs[i] = drv.CreateEndpoint(uint64(i))
	}
	cycle := func() {
		for _, s := range segs {
			if !s.Resident() {
				drv.RequestResident(s.EP)
				break
			}
		}
		c.RunFor(5 * sim.Millisecond)
	}
	for range segs {
		cycle()
	}
	evicts := drv.C.Get("remap.evict")
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("evict + load cycle allocates %.2f times, want 0", avg)
	}
	if got := drv.C.Get("remap.evict") - evicts; got != 51 {
		t.Errorf("%d evictions in 51 cycles", got)
	}
}

func TestComputeTimeSlicing(t *testing.T) {
	c := newTestCluster(t, 1, func(cc *ClusterConfig) { cc.OS.Quantum = 1 * sim.Millisecond })
	node := c.Nodes[0]
	var doneA, doneB sim.Time
	node.Spawn("a", func(p *sim.Proc) {
		node.Compute(p, 10*sim.Millisecond)
		doneA = p.Now()
	})
	node.Spawn("b", func(p *sim.Proc) {
		node.Compute(p, 10*sim.Millisecond)
		doneB = p.Now()
	})
	c.RunFor(sim.Second)
	if doneA == 0 || doneB == 0 {
		t.Fatal("compute never finished")
	}
	// Two 10 ms jobs timesharing one CPU: both finish near 20 ms, and the
	// later one no earlier than 20 ms.
	later := doneA
	if doneB > later {
		later = doneB
	}
	if later < sim.Time(20*sim.Millisecond) {
		t.Fatalf("timesharing too fast: A=%v B=%v", doneA, doneB)
	}
	gap := doneA - doneB
	if gap < 0 {
		gap = -gap
	}
	if gap > sim.Time(2*sim.Millisecond) {
		t.Fatalf("unfair slicing: A=%v B=%v", doneA, doneB)
	}
}

func TestComputeUncontendedFastPath(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	node := c.Nodes[0]
	var done sim.Time
	node.Spawn("solo", func(p *sim.Proc) {
		node.Compute(p, 100*sim.Millisecond)
		done = p.Now()
	})
	c.RunFor(sim.Second)
	if done != sim.Time(100*sim.Millisecond) {
		t.Fatalf("solo compute took %v, want exactly 100ms", done)
	}
}

func TestReplacementPolicies(t *testing.T) {
	for _, pol := range []ReplacementPolicy{ReplaceRandom, ReplaceLRU, ReplaceFIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			c := newTestCluster(t, 2, func(cc *ClusterConfig) { cc.OS.Policy = pol })
			drv := c.Nodes[0].Driver
			nFrames := c.Nodes[0].NIC.Config().Frames
			var segs []*Segment
			for i := 0; i < nFrames+2; i++ {
				segs = append(segs, drv.CreateEndpoint(uint64(i)))
			}
			c.Nodes[0].Spawn("app", func(p *sim.Proc) {
				for _, s := range segs {
					drv.WriteFault(p, s)
					for !s.Resident() {
						s.Cond.Wait(p)
					}
					p.Sleep(sim.Millisecond)
				}
			})
			c.RunFor(sim.Second)
			resident := 0
			for _, s := range segs {
				if s.Resident() {
					resident++
				}
			}
			if resident != nFrames {
				t.Fatalf("resident = %d, want %d", resident, nFrames)
			}
		})
	}
}

// Property: however many endpoints are created and faulted, the number
// resident never exceeds the frame count and every faulted endpoint
// eventually becomes resident at least once.
func TestResidencyInvariantProperty(t *testing.T) {
	f := func(nEPs8 uint8, seed int64) bool {
		nEPs := int(nEPs8%20) + 1
		cfg := DefaultClusterConfig()
		c := NewCluster(seed, 2, cfg)
		defer c.Shutdown()
		drv := c.Nodes[0].Driver
		frames := c.Nodes[0].NIC.Config().Frames
		loaded := make([]bool, nEPs)
		var segs []*Segment
		for i := 0; i < nEPs; i++ {
			segs = append(segs, drv.CreateEndpoint(uint64(i)))
		}
		ok := true
		c.Nodes[0].Spawn("app", func(p *sim.Proc) {
			for i, s := range segs {
				drv.WriteFault(p, s)
				for !s.Resident() {
					s.Cond.Wait(p)
				}
				loaded[i] = true
				res := 0
				for _, s2 := range segs {
					if s2.Resident() {
						res++
					}
				}
				if res > frames {
					ok = false
				}
			}
		})
		c.RunFor(2 * sim.Second)
		for _, l := range loaded {
			if !l {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConstruction(t *testing.T) {
	c := newTestCluster(t, 100, nil)
	if len(c.Nodes) != 100 {
		t.Fatalf("nodes = %d", len(c.Nodes))
	}
	if c.ShardNet(0).NumHosts() != 100 {
		t.Fatalf("network hosts = %d", c.ShardNet(0).NumHosts())
	}
	for i, n := range c.Nodes {
		if n.ID != netsim.NodeID(i) {
			t.Fatalf("node %d has id %d", i, n.ID)
		}
	}
}

func TestArrivalForPagedOutEndpoint(t *testing.T) {
	// A message arriving for an endpoint that was paged to disk must drive
	// page-in + load through the proxy-fault path (Fig. 2's full cycle).
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)
	if err := c.Nodes[1].Driver.PageOut(dst); err != nil {
		t.Fatal(err)
	}
	c.Nodes[0].Spawn("sender", func(p *sim.Proc) {
		sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 2, Handler: 1})
	})
	c.RunFor(500 * sim.Millisecond)
	if dst.State != OnNIC {
		t.Fatalf("state = %v, want on-nic", dst.State)
	}
	if dst.EP.RecvQ.Len() != 1 {
		t.Fatal("message not delivered after page-in + remap")
	}
	if c.Nodes[1].Driver.C.Get("fault.proxy_pagein") == 0 {
		t.Fatal("proxy page-in not recorded")
	}
}

func TestFreeUnblocksDisabledHostRWFaulter(t *testing.T) {
	// With the original (blocking) design, a thread stuck in a write fault
	// must be released if the endpoint is freed by another thread.
	c := newTestCluster(t, 2, func(cc *ClusterConfig) {
		cc.OS.DisableHostRW = true
	})
	drv := c.Nodes[0].Driver
	seg := drv.CreateEndpoint(1)
	faultReturned := false
	c.Nodes[0].Spawn("faulter", func(p *sim.Proc) {
		drv.WriteFault(p, seg)
		faultReturned = true
	})
	c.Nodes[0].Spawn("freer", func(p *sim.Proc) {
		// Past the faulter's trap, inside the remap thread's scan delay:
		// the faulter is blocked and its remap has not begun.
		p.Sleep(faultCost + remapScanDelay/2)
		drv.Free(p, seg)
	})
	// The free, not a completed remap, releases it: no remap begins before
	// the scan delay has passed.
	c.RunFor(faultCost + remapScanDelay)
	if !faultReturned {
		t.Fatal("blocked faulter not released by the free")
	}
}

func TestSegmentStateStringAndPolicyString(t *testing.T) {
	states := map[SegState]string{
		OnHostRO: "on-host r/o", OnHostRW: "on-host r/w",
		OnNIC: "on-nic r/w", OnDisk: "on-disk",
	}
	for s, want := range states {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	pols := map[ReplacementPolicy]string{
		ReplaceRandom: "random", ReplaceLRU: "lru", ReplaceFIFO: "fifo",
	}
	for p, want := range pols {
		if p.String() != want {
			t.Fatalf("policy %d = %q", p, p.String())
		}
	}
}

func TestFaultRevalidationSkipsCompletedBinding(t *testing.T) {
	// Two threads fault the same endpoint; the second fault must observe
	// the binding completed during its trap and not reset the state.
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	seg := drv.CreateEndpoint(1)
	c.Nodes[0].Spawn("a", func(p *sim.Proc) {
		drv.WriteFault(p, seg)
		for !seg.Resident() {
			seg.Cond.Wait(p)
		}
		// Now fault again: must be a no-op (state stays on-nic).
		drv.WriteFault(p, seg)
		if seg.State != OnNIC {
			t.Errorf("second fault reset state to %v", seg.State)
		}
	})
	c.RunFor(100 * sim.Millisecond)
	if drv.C.Get("fault.write") != 1 {
		t.Fatalf("fault.write = %d, want exactly 1", drv.C.Get("fault.write"))
	}
}

// TestWriteFaultCharges pins the trap a write to a non-resident endpoint
// costs its thread: 25 us from host memory, plus a 6 ms page-in when VM
// pressure had paged the endpoint out to disk. No experiment pages an
// endpoint out, so this is the only place the page-in cost shows.
func TestWriteFaultCharges(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	onHost, onDisk := drv.CreateEndpoint(1), drv.CreateEndpoint(2)
	if err := drv.PageOut(onDisk); err != nil {
		t.Fatal(err)
	}
	var took [2]sim.Duration
	c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		for i, seg := range []*Segment{onHost, onDisk} {
			start := p.Now()
			drv.WriteFault(p, seg)
			took[i] = p.Now().Sub(start)
		}
	})
	c.RunFor(100 * sim.Millisecond)
	if took[0] != 25*sim.Microsecond || took[1] != 6025*sim.Microsecond {
		t.Fatalf("write faults took %v (on host) and %v (paged out), want 25us and 6.025ms", took[0], took[1])
	}
}
