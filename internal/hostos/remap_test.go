package hostos

import (
	"runtime"
	"testing"

	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// The remap machine is timer callbacks on the engine, not a simulated
// thread, so building a cluster starts no goroutine per host.
func TestClusterBuildStartsNoGoroutinePerHost(t *testing.T) {
	const hosts = 256
	before := runtime.NumGoroutine()
	c := NewCluster(1, hosts, DefaultClusterConfig())
	grew := runtime.NumGoroutine() - before
	c.Shutdown()
	if grew >= hosts {
		t.Fatalf("a %d-host cluster build started %d goroutines, want fewer than one per host", hosts, grew)
	}
}

// A crash drops the remap in hand wherever it stands: inside a stage delay
// or with its load command in the NI's hands. Nothing of the dropped
// machine runs afterwards; its pending arm fires as the killed kernel
// thread's wakeup did, and does nothing. After Restart the machine serves a
// fresh endpoint.
func TestCrashMidRemap(t *testing.T) {
	// The remap of a lone request with a free frame submits its load at
	// remapScanDelay+loadCost.
	submit := sim.Time(remapScanDelay + loadCost)
	for _, tc := range []struct {
		name  string
		crash sim.Time
		// fired counts the events between the crash and the restart, and
		// total those of the whole script. The proc-based driver fired the
		// same numbers: its spawn kicks at build and at Restart each woke the
		// thread for the request queued before they fired, where the machine
		// arms its kick from the request.
		fired, total uint64
	}{
		{"in loadCost", submit.Add(-loadCost / 2), 1, 12},
		{"load command in the NI", submit + 1, 1, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 1, nil)
			node := c.Nodes[0]
			drv := node.Driver
			seg := drv.CreateEndpoint(1)
			drv.RequestResident(seg.EP)
			c.RunUntil(tc.crash)
			if !seg.remapping {
				t.Fatalf("at %v the remap is not in hand", tc.crash)
			}
			node.Crash()
			atCrash := c.EngineStats().Fired
			c.RunFor(10 * sim.Millisecond)
			if got := c.EngineStats().Fired - atCrash; got != tc.fired {
				t.Errorf("%d events fired between crash and restart, want %d", got, tc.fired)
			}
			if got := drv.C.Get("remap.load"); got != 0 {
				t.Fatalf("the dropped remap loaded %d times after the crash", got)
			}
			if seg.remapping || seg.Resident() {
				t.Fatalf("dropped segment: remapping=%v resident=%v", seg.remapping, seg.Resident())
			}

			node.Restart()
			fresh := drv.CreateEndpoint(2)
			drv.RequestResident(fresh.EP)
			c.RunFor(10 * sim.Millisecond)
			if !fresh.Resident() || fresh.remapping {
				t.Fatalf("after restart: resident=%v remapping=%v", fresh.Resident(), fresh.remapping)
			}
			if got := drv.C.Get("remap.load"); got != 1 {
				t.Fatalf("remap.load = %d after restart, want 1", got)
			}
			if got := c.EngineStats().Fired; got != tc.total {
				t.Errorf("%d events fired in all, want %d", got, tc.total)
			}
		})
	}
}

// A thread killed in Free while its endpoint's unload quiesces is not woken
// when the unload completes: the command's Done sees the proc is gone.
// Waking it anyway would fire one more event; the proc-based driver fired
// the same 2.
func TestKilledFreeWaiterIsNotWoken(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	src := c.Nodes[0].Driver.CreateEndpoint(1)
	dst := c.Nodes[1].Driver.CreateEndpoint(2)
	c.Nodes[0].Driver.RequestResident(src.EP)
	c.Nodes[1].Driver.RequestResident(dst.EP)
	c.RunFor(10 * sim.Millisecond)
	returned := false
	app := c.Nodes[0].Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			sendVia(c, p, 0, src, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 2, Handler: 1})
		}
		for src.EP.Inflight() == 0 {
			p.Sleep(sim.Microsecond)
		}
		c.Nodes[0].Driver.Free(p, src)
		returned = true
	})
	for i := 0; src.EP.State != nic.EPQuiescing; i++ {
		if i == 10_000 {
			t.Fatal("the endpoint never quiesced")
		}
		c.RunFor(sim.Microsecond)
	}
	app.Kill()
	atKill := c.EngineStats().Fired
	c.RunFor(200 * sim.Millisecond)
	if src.EP.State != nic.EPHost {
		t.Fatalf("the unload never completed: endpoint %v", src.EP.State)
	}
	if returned || c.Nodes[0].Driver.C.Get("ep.free") != 0 {
		t.Fatal("the killed thread ran on after its unload completed")
	}
	if got := c.EngineStats().Fired - atKill; got != 2 {
		t.Errorf("%d events fired after the kill, want 2", got)
	}
}

// When every frame is mid-unload there is no victim: the request goes back
// on the queue 200 µs later, and loads once a quiesce frees a frame.
func TestRemapRetriesWhileEveryFrameQuiesces(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	drv := c.Nodes[0].Driver
	frames := c.Nodes[0].NIC.Config().Frames
	dst := c.Nodes[1].Driver.CreateEndpoint(100)
	segs := make([]*Segment, frames)
	for i := range segs {
		segs[i] = drv.CreateEndpoint(uint64(i))
		drv.RequestResident(segs[i].EP)
	}
	c.RunFor(50 * sim.Millisecond)
	for i, s := range segs {
		if !s.Resident() {
			t.Fatalf("endpoint %d not resident", i)
		}
	}
	// With the peer down, one send per endpoint stays in flight, so each
	// endpoint's unload quiesces until the peer is back.
	c.Nodes[1].Crash()
	freed := 0
	for _, s := range segs {
		sendVia(c, nil, 0, s, &nic.SendDesc{DstNI: 1, DstEP: dst.EP.ID, Key: 100, Handler: 1})
		c.Nodes[0].Spawn("free", func(p *sim.Proc) {
			drv.Free(p, s)
			freed++
		})
	}
	c.RunFor(sim.Millisecond)
	for i, s := range segs {
		if s.EP.State != nic.EPQuiescing {
			t.Fatalf("endpoint %d is %v, want quiescing", i, s.EP.State)
		}
	}

	extra := drv.CreateEndpoint(uint64(frames))
	drv.RequestResident(extra.EP)
	req := c.Now()
	// The scan finds no frame and no victim: the remap ends with a retry
	// armed, not queued.
	c.RunUntil(req.Add(remapScanDelay + 1))
	if extra.remapping || extra.remapQueued {
		t.Fatalf("after the scan: remapping=%v queued=%v, want a retry pending", extra.remapping, extra.remapQueued)
	}
	c.RunUntil(req.Add(remapScanDelay + 200*sim.Microsecond - 1))
	if extra.remapQueued {
		t.Fatal("the retry came before 200 µs")
	}
	c.RunUntil(req.Add(remapScanDelay + 200*sim.Microsecond))
	if !extra.remapping {
		t.Fatal("the retry did not take the segment in hand at 200 µs")
	}
	c.RunFor(5 * sim.Millisecond)
	if extra.Resident() || drv.C.Get("remap.evict") != 0 {
		t.Fatalf("loaded while every frame quiesced: resident=%v evictions=%d", extra.Resident(), drv.C.Get("remap.evict"))
	}

	c.Nodes[1].Restart()
	loads := drv.C.Get("remap.load")
	c.RunFor(sim.Second)
	if freed != frames {
		t.Fatalf("%d of %d frees completed", freed, frames)
	}
	if !extra.Resident() {
		t.Fatalf("endpoint never loaded once frames freed: %v", extra.State)
	}
	if got := drv.C.Get("remap.load") - loads; got != 1 {
		t.Fatalf("%d loads after the frames freed, want 1", got)
	}
}
