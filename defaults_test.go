package virtnet

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"virtnet/internal/ctlplane"
	"virtnet/internal/glunix"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
	"virtnet/internal/vnet"
)

// The breaker and control-plane policy values, built the one way callers get
// them. The rows below exercise them only through public behaviour.
func defaultBreaker() *reliab.Breaker { return reliab.NewBreaker(nil) }
func defaultMonitor(c *hostos.Cluster) (*glunix.Monitor, error) {
	return glunix.NewMonitor(c, nil, nil)
}
func defaultManager(c *hostos.Cluster) *vnet.Manager { return vnet.NewManager(c, 4) }

// TestPolicyDefaults pins the return, breaker, failure-detection and
// tenancy policy every layer above the transport runs with: the breaker's
// threshold and cooldowns, an rpc call's fate when its fragment comes back,
// the monitor's silence threshold, and a tenant's default quota, share and
// translation-table size. The goldens never reach a breaker cooldown, so
// this is where a change to one of these values shows.
func TestPolicyDefaults(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"breaker opens on the 4th failure and probes after 25ms doubling to 1s", pinBreaker},
		{"a returned rpc fragment fails its call at once, and the 4th opens the breaker", pinRPCReturn},
		{"the monitor declares death after 50-60ms of silence", pinSilence},
		{"a tenant without quota or share gets 16 and 1", pinTenantDefaults},
		{"a vnet endpoint refuses peer index 64", pinTableSize},
	} {
		t.Run(row.name, row.run)
	}
}

func pinBreaker(t *testing.T) {
	b := defaultBreaker()
	now := sim.Time(0)
	for i := 1; i <= 4; i++ {
		if b.State() != reliab.Closed || !b.Allow(now) {
			t.Fatalf("failure %d: breaker %v before it, want closed and allowing", i, b.State())
		}
		b.Failure(now)
	}
	if b.State() != reliab.Open {
		t.Fatalf("after 4 failures: %v, want open", b.State())
	}
	for _, ms := range []sim.Duration{25, 50, 100, 200, 400, 800, 1000, 1000} {
		cool := ms * sim.Millisecond
		if b.Allow(now.Add(cool - 1)) {
			t.Fatalf("probe admitted 1ns before the %v cooldown", cool)
		}
		now = now.Add(cool)
		if !b.Allow(now) || b.State() != reliab.HalfOpen {
			t.Fatalf("no probe after the %v cooldown", cool)
		}
		b.Failure(now)
	}
}

// pinRPCReturn calls a server whose host link is down, so every call
// fragment comes back to the client as a transient return. The NI has
// already retried it, so nothing re-sends it: each return fails its call
// with ErrUnreachable in the poll that finds it, and the fourth failure opens
// the target's breaker.
func pinRPCReturn(t *testing.T) {
	cfg := hostos.DefaultClusterConfig()
	// Returns must land within a few hundred µs of the send.
	cfg.NIC.RetransBase = 40 * sim.Microsecond
	cfg.NIC.RetransMax = 80 * sim.Microsecond
	cfg.NIC.ReturnToSenderAfter = 250 * sim.Microsecond
	c := hostos.NewCluster(1, 2, cfg)
	defer c.Shutdown()
	s, err := rpc.NewServer(c.Nodes[1], 77)
	if err != nil {
		t.Fatal(err)
	}
	c.ShardNet(0).SetHostLinkDown(c.Nodes[1].ID, true)
	m := reliab.NewMetrics()
	ni := c.Nodes[0].NIC
	var errs []error
	var returns []int64 // messages returned to the client's NI at each failure
	var fifth error
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		// A one-target pool: an rpc.Client without the wrapper.
		cl, err := rpc.NewPool(c.Nodes[0], 1, rpc.Options{Metrics: m})
		if err == nil {
			err = cl.Add(s.Name(), 77)
		}
		if err != nil {
			t.Error(err)
			return
		}
		pcs := make([]rpc.PoolPending, 4)
		for i := range pcs {
			if pcs[i], err = cl.GoCtx(p, 0, 1, []byte{byte(i)}, reliab.Ctx{}); err != nil {
				t.Error(err)
				return
			}
		}
		// The loop rpc.Pool.IdlePoll is documented to equal — poll, and
		// sleep a tick after a poll that finds nothing — harvesting after
		// every poll.
		settled := make([]bool, len(pcs))
		for end := p.Now().Add(20 * sim.Millisecond); p.Now() < end; {
			n := cl.Poll(p)
			for i := range pcs {
				if settled[i] {
					continue
				}
				if _, done, err := pcs[i].TryWait(p); done {
					settled[i] = true
					errs = append(errs, err)
					returns = append(returns, ni.C.Get("rts.delivered"))
				}
			}
			if n == 0 {
				p.Sleep(5 * sim.Microsecond)
			}
		}
		_, fifth = cl.GoCtx(p, 0, 1, []byte{4}, reliab.Ctx{})
	})
	c.RunFor(sim.Second)
	if len(errs) != 4 {
		t.Fatalf("%d of 4 calls settled", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, rpc.ErrUnreachable) {
			t.Fatalf("call %d: %v, want %v", i, err, rpc.ErrUnreachable)
		}
	}
	if fmt.Sprint(returns) != "[1 2 3 4]" || ni.C.Get("rts.delivered") != 4 {
		t.Fatalf("returns at each failure = %v, %d in all; want [1 2 3 4], 4 in all", returns, ni.C.Get("rts.delivered"))
	}
	if m.Get("breaker_open") != 1 || !errors.Is(fifth, rpc.ErrCircuitOpen) {
		t.Fatalf("breaker opened %d times, fifth call %v; want 1 and %v", m.Get("breaker_open"), fifth, rpc.ErrCircuitOpen)
	}
}

// pinSilence partitions the one beating node of a two-node cluster and
// measures, at 1 ms resolution, from the last heartbeat the master heard to
// the death verdict.
func pinSilence(t *testing.T) {
	c := hostos.NewCluster(1, 2, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	mon, err := defaultMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	var lastBeat sim.Time
	beats := mon.Beats
	for !mon.Dead(1) && c.Now() < sim.Time(sim.Second) {
		if c.Now() == sim.Time(20*sim.Millisecond) {
			c.ShardNet(0).SetHostLinkDown(1, true)
		}
		c.RunFor(sim.Millisecond)
		if mon.Beats != beats {
			lastBeat, beats = c.Now(), mon.Beats
		}
	}
	if silence := c.Now().Sub(lastBeat); silence < 50*sim.Millisecond || silence > 60*sim.Millisecond {
		t.Fatalf("declared dead after %v of silence, want 50-60ms", silence)
	}
}

func pinTenantDefaults(t *testing.T) {
	c := hostos.NewCluster(1, 2, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	srv := ctlplane.NewServer(defaultManager(c))
	resp := srv.Handle(ctlplane.Request{Op: "create-tenant", Tenant: "t"})
	var got map[string]int
	if err := json.Unmarshal(resp.Result, &got); err != nil || !resp.OK {
		t.Fatalf("create-tenant: ok=%v err=%s (%v)", resp.OK, resp.Err, err)
	}
	if got["quota"] != 16 || got["share"] != 1 {
		t.Fatalf("tenant defaults = %v, want quota 16, share 1", got)
	}
}

func pinTableSize(t *testing.T) {
	c := hostos.NewCluster(1, 3, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	ten, err := defaultManager(c).CreateTenant("t", 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if err := ten.AddNIC(n); err != nil {
			t.Fatal(err)
		}
	}
	nw, err := ten.CreateNetwork("n")
	if err != nil {
		t.Fatal(err)
	}
	var eps []*vnet.Endpoint
	for i := 0; i <= 65; i++ {
		ep, err := nw.CreateEndpoint(fmt.Sprint("e", i), -1)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	for i, peer := range eps[1:] {
		idx, err := eps[0].MapPeer(peer)
		if i < 64 && (err != nil || idx != i) {
			t.Fatalf("peer %d: index %d, err %v", i, idx, err)
		}
		if i == 64 && err == nil {
			t.Fatalf("peer index 64 mapped into a 64-entry table")
		}
	}
}
