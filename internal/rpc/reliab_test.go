package rpc

import (
	"bytes"
	"errors"
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/sim"
)

// TestAbandonedCallsReclaimMaps is the regression test for the re-issue
// bookkeeping leak: calls abandoned via ErrTimeout used to strand entries
// in the client and server maps forever. Hammer timeouts against a paused
// server, then let it drain, and assert every map returns to zero.
func TestAbandonedCallsReclaimMaps(t *testing.T) {
	c := newCluster(t, 2)
	s, err := NewServer(c.Nodes[0], 77)
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	paused := true
	stop := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for !stop {
			if paused || s.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	var cl *Client
	timeouts := 0
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		// The breaker is off: this test hammers timeouts on purpose and
		// wants every one of the 30 calls issued.
		cl, _ = NewClientOpts(c.Nodes[1], s.Name(), 77, Options{NoBreaker: true})
		for i := 0; i < 30; i++ {
			pc, e := cl.pl.GoCtx(p, 0, 1, []byte{byte(i)}, reliab.Ctx{})
			if e != nil {
				t.Errorf("go %d: %v", i, e)
				return
			}
			if _, e = pc.WaitTimeout(p, 2*sim.Millisecond); e == ErrTimeout {
				timeouts++
			}
		}
		// Abandoned: client bookkeeping must already be clean.
		if r, ri, d := cl.Outstanding(); r != 0 || ri != 0 || d != 0 {
			t.Errorf("client leaked after timeouts: results=%d reissues=%d deferred=%d", r, ri, d)
		}
		// Resume the server and keep servicing the endpoint so the stale
		// results it sends are acknowledged (and dropped) here.
		paused = false
		for !stop {
			if cl.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	c.RunFor(2 * sim.Second)
	stop = true
	c.RunFor(100 * sim.Millisecond)
	if timeouts != 30 {
		t.Fatalf("timeouts = %d, want 30", timeouts)
	}
	if s.Served != 30 {
		t.Fatalf("server served %d stale calls, want 30", s.Served)
	}
	if calls, reissues, queued, deferred := s.Outstanding(); calls != 0 || reissues != 0 || queued != 0 || deferred != 0 {
		t.Fatalf("server leaked: calls=%d reissues=%d queued=%d deferred=%d", calls, reissues, queued, deferred)
	}
	if r, ri, d := cl.Outstanding(); r != 0 || ri != 0 || d != 0 {
		t.Fatalf("client leaked: results=%d reissues=%d deferred=%d", r, ri, d)
	}
}

// TestPartialCallBufSweep: a call whose client dies mid-send leaves a
// partially assembled buffer the acknowledgment path can never retire;
// only the stale sweep reclaims it.
func TestPartialCallBufSweep(t *testing.T) {
	c := newCluster(t, 2)
	s, err := NewServerOpts(c.Nodes[0], 77, Options{StaleAfter: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	stop := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for !stop {
			if s.Poll(p) == 0 {
				p.Sleep(50 * sim.Microsecond)
			}
		}
	})
	// Forge the first fragment of a multi-fragment call and then go silent:
	// the rest of the call never arrives.
	c.Nodes[1].Spawn("half-client", func(p *sim.Proc) {
		b := core.Attach(c.Nodes[1])
		ep, e := b.NewEndpoint(core.Key(5005), 4)
		if e != nil {
			t.Errorf("endpoint: %v", e)
			return
		}
		ep.SetHandler(hCallOK, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {})
		if e := ep.Map(0, s.Name(), 77); e != nil {
			t.Errorf("map: %v", e)
			return
		}
		meta := uint64(1)<<40 | uint64(5005)
		self := uint64(ep.Name().Raw())
		frag := make([]byte, 100)
		ol := uint64(0)<<20 | uint64(1000) // first 100 bytes of a 1000-byte call
		if e := ep.RequestBulk(p, 0, hCall, frag, [4]uint64{9, ol, meta, self}); e != nil {
			t.Errorf("send: %v", e)
		}
		for i := 0; i < 100; i++ {
			ep.Poll(p)
			p.Sleep(sim.Millisecond)
		}
	})
	c.RunFor(20 * sim.Millisecond)
	if calls, _, _, _ := s.Outstanding(); calls != 1 {
		t.Fatalf("partial call not buffered: calls=%d", calls)
	}
	c.RunFor(sim.Second)
	stop = true
	if calls, _, _, _ := s.Outstanding(); calls != 0 {
		t.Fatalf("stale partial call not swept: calls=%d", calls)
	}
}

// TestNestedDeadlinePropagation covers the deadline story end to end over
// a client → mid-tier → backend chain: a budget that expires while the
// call waits at the mid tier is shed there — before the backend call is
// ever issued — which the obs flight recorder verifies by the absence of
// any message flight to the backend node. A later call with budget to
// spare flows through all three tiers.
func TestNestedDeadlinePropagation(t *testing.T) {
	c := hostos.NewCluster(1, 3, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	o := c.EnableObs(obs.Options{SampleEvery: 1, SnapshotEvery: 0})

	m := reliab.NewMetrics()
	backend, err := NewServer(c.Nodes[2], 88)
	if err != nil {
		t.Fatal(err)
	}
	backend.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	stop := false
	c.Nodes[2].Spawn("backend", func(p *sim.Proc) {
		for !stop {
			if backend.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})

	mid, err := NewServerOpts(c.Nodes[1], 77, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	bcl, err := NewClientOpts(c.Nodes[1], backend.Name(), 88, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	mid.RegisterCtx(1, func(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error) {
		// Inherit the caller's remaining budget verbatim: the deadline is
		// absolute, so the backend sees exactly what is left.
		return bcl.CallCtx(p, 1, args, ctx)
	})
	// The mid tier comes up busy: it starts servicing calls only at t=5ms,
	// well past the first call's 2ms deadline.
	c.Nodes[1].Spawn("mid", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		for !stop {
			if mid.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})

	var phase2 sim.Time
	var lateErr, okErr error
	var okOut []byte
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		cl, e := NewClientOpts(c.Nodes[0], mid.Name(), 77, Options{Metrics: m})
		if e != nil {
			t.Errorf("client: %v", e)
			return
		}
		_, lateErr = cl.CallCtx(p, 1, []byte("late"), reliab.Ctx{Deadline: p.Now().Add(2 * sim.Millisecond)})
		p.Sleep(10 * sim.Millisecond) // let the shed NACK land and the mid tier settle
		phase2 = p.Now()
		okOut, okErr = cl.CallCtx(p, 1, []byte("fresh"), reliab.Ctx{Deadline: p.Now().Add(100 * sim.Millisecond)})
	})
	c.RunFor(200 * sim.Millisecond)
	stop = true
	c.RunFor(10 * sim.Millisecond)

	if lateErr != ErrTimeout && lateErr != ErrDeadlineExceeded {
		t.Fatalf("expired call = %v, want timeout/deadline", lateErr)
	}
	if okErr != nil || !bytes.Equal(okOut, []byte("fresh")) {
		t.Fatalf("fresh call = %q, %v", okOut, okErr)
	}
	if m.Get("shed") < 1 || m.Get("deadline_exceeded") < 1 {
		t.Fatalf("mid tier did not shed: shed=%d deadline_exceeded=%d", m.Get("shed"), m.Get("deadline_exceeded"))
	}
	if backend.Served != 1 {
		t.Fatalf("backend served %d calls, want exactly the fresh one", backend.Served)
	}
	// Flight-recorder check: with 1-in-1 sampling every message to the
	// backend node leaves a flight; none may predate phase 2.
	sawBackend := false
	for _, f := range o.T.Flights() {
		if f.Dst != 2 {
			continue
		}
		sawBackend = true
		if f.Begin < phase2 {
			t.Fatalf("message reached backend at %v, before the shed phase ended at %v", f.Begin, phase2)
		}
	}
	if !sawBackend {
		t.Fatal("no flights to the backend at all — tracer not wired?")
	}
}

// TestAdmissionOverloadNack: a full admission queue NACKs new arrivals
// with ErrOverload instead of queueing without bound, and queued work
// drains once the server steps.
func TestAdmissionOverloadNack(t *testing.T) {
	c := newCluster(t, 2)
	m := reliab.NewMetrics()
	s, err := NewServerOpts(c.Nodes[0], 77, Options{Queue: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) { return args, nil })
	stepOn := false
	stop := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for !stop {
			worked := s.Poll(p) > 0
			if stepOn && s.Step(p) {
				worked = true
			}
			if !worked {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	var errs []error
	var pend []*PoolPending
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		deadline := p.Now().Add(100 * sim.Millisecond)
		for i := 0; i < 5; i++ {
			pc, e := cl.pl.GoCtx(p, 0, 1, []byte{byte(i)}, reliab.Ctx{Deadline: deadline})
			if e != nil {
				t.Errorf("go: %v", e)
				return
			}
			pend = append(pend, pc)
		}
		// Give the NACKs time to land, then open the queue and harvest.
		p.Sleep(5 * sim.Millisecond)
		stepOn = true
		for _, pc := range pend {
			_, e := pc.WaitTimeout(p, 50*sim.Millisecond)
			errs = append(errs, e)
		}
	})
	c.RunFor(sim.Second)
	stop = true
	overloads, oks := 0, 0
	for _, e := range errs {
		switch {
		case e == nil:
			oks++
		case errors.Is(e, ErrOverload):
			overloads++
		default:
			t.Fatalf("unexpected error: %v", e)
		}
	}
	if oks != 2 || overloads != 3 {
		t.Fatalf("oks=%d overloads=%d, want 2 admitted and 3 NACKed", oks, overloads)
	}
	if m.Get("overload_nacks") != 3 {
		t.Fatalf("overload_nacks = %d", m.Get("overload_nacks"))
	}
	if s.Served != 2 {
		t.Fatalf("served = %d", s.Served)
	}
}

// TestIdempotentRetryExactlyOnce: a retry carrying the same idempotency
// key returns the cached result without running the handler again.
func TestIdempotentRetryExactlyOnce(t *testing.T) {
	c := newCluster(t, 2)
	m := reliab.NewMetrics()
	s, err := NewServerOpts(c.Nodes[0], 77, Options{IdemCap: 16, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	effects := 0
	s.Register(1, func(p *sim.Proc, args []byte) ([]byte, error) {
		effects++
		return append([]byte("r"), args...), nil
	})
	stop := false
	c.Nodes[0].Spawn("server", func(p *sim.Proc) {
		for !stop {
			if s.Poll(p) == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
	})
	var out1, out2 []byte
	c.Nodes[1].Spawn("client", func(p *sim.Proc) {
		cl, _ := NewClient(c.Nodes[1], s.Name(), 77)
		ctx := reliab.Ctx{IdemKey: 42}
		out1, _ = cl.CallCtx(p, 1, []byte("x"), ctx)
		out2, _ = cl.CallCtx(p, 1, []byte("x"), ctx) // the "retry"
	})
	c.RunFor(100 * sim.Millisecond)
	stop = true
	if effects != 1 {
		t.Fatalf("handler ran %d times, want exactly once", effects)
	}
	if !bytes.Equal(out1, []byte("rx")) || !bytes.Equal(out2, out1) {
		t.Fatalf("results differ: %q vs %q", out1, out2)
	}
	if m.Get("idem_hits") != 1 {
		t.Fatalf("idem_hits = %d", m.Get("idem_hits"))
	}
}

// TestCircuitBreakerFastFail: consecutive unreachable failures open the
// per-server breaker, after which calls fail fast with the typed
// ErrCircuitOpen instead of waiting out the transport retry schedule.
func TestCircuitBreakerFastFail(t *testing.T) {
	c := newCluster(t, 2)
	m := reliab.NewMetrics()
	s, err := NewServer(c.Nodes[1], 77)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	var cl *Client
	var errs []error
	var fastFailTook sim.Duration = -1
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		cl, _ = NewClientOpts(c.Nodes[0], s.Name(), 77, Options{Metrics: m})
		for i := 0; i < 5; i++ {
			start := p.Now()
			_, e := cl.Call(p, 1, []byte{1}, 0)
			errs = append(errs, e)
			if i == 4 {
				fastFailTook = p.Now().Sub(start)
			}
		}
	})
	c.Nodes[1].E.AfterFunc(sim.Millisecond, func() { c.Nodes[1].Crash() })
	c.RunFor(10 * sim.Second)
	if len(errs) != 5 {
		t.Fatalf("got %d call results, want 5", len(errs))
	}
	for i, e := range errs[:4] {
		if e != ErrUnreachable {
			t.Fatalf("failure %d = %v, want ErrUnreachable", i+1, e)
		}
	}
	if !errors.Is(errs[4], ErrCircuitOpen) {
		t.Fatalf("post-open call = %v, want ErrCircuitOpen", errs[4])
	}
	if fastFailTook != 0 {
		t.Fatalf("fast-fail took %v of virtual time, want 0", fastFailTook)
	}
	if cl.pl.targets[0].brk.State() != reliab.Open {
		t.Fatalf("breaker state = %v, want open", cl.pl.targets[0].brk.State())
	}
	if m.Get("breaker_open") != 1 || m.Get("breaker_fastfail") != 1 {
		t.Fatalf("breaker counters: open=%d fastfail=%d", m.Get("breaker_open"), m.Get("breaker_fastfail"))
	}
}
