package virtnet

import (
	"encoding/json"
	"fmt"
	"testing"

	"virtnet/internal/ctlplane"
	"virtnet/internal/glunix"
	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
	"virtnet/internal/vnet"
)

// The retry and control-plane policy values, built the one way callers get
// them. The rows below exercise them only through public behaviour.
func defaultBackoff(attempt int) sim.Duration { return reliab.Delay(attempt, nil) }
func defaultBreaker() *reliab.Breaker         { return reliab.NewBreaker(nil) }
func defaultRetrier() *reliab.Retrier[int]    { return reliab.NewRetrier[int](nil) }
func defaultMonitor(c *hostos.Cluster) (*glunix.Monitor, error) {
	return glunix.NewMonitor(c, nil, nil, 0)
}
func defaultManager(c *hostos.Cluster) *vnet.Manager { return vnet.NewManager(c, 4) }

// TestPolicyDefaults pins the retry, breaker, failure-detection and tenancy
// values every layer above the transport runs with: the backoff schedule,
// the breaker's threshold and cooldowns, the per-key retry cap, an rpc
// peer's retry budget, the monitor's silence threshold and flap probation,
// and a tenant's default quota, share and translation-table size. The
// goldens never reach a breaker cooldown or a flap probation, so this is
// where a change to one of these values shows.
func TestPolicyDefaults(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"backoff doubles from 100us to a 20ms cap", pinBackoff},
		{"breaker opens on the 4th failure and probes after 25ms doubling to 1s", pinBreaker},
		{"a retrier denies a key's 4th bounce", pinRetryCap},
		{"an rpc peer's budget denies the 4th bounce inside 250ms", pinRPCBudget},
		{"the monitor declares death after 50-60ms of silence", pinSilence},
		{"flap probation runs 100ms doubling to 5s", pinProbation},
		{"a tenant without quota or share gets 16 and 1", pinTenantDefaults},
		{"a vnet endpoint refuses peer index 64", pinTableSize},
	} {
		t.Run(row.name, row.run)
	}
}

func pinBackoff(t *testing.T) {
	// Without a PRNG the delay is the midpoint of [nominal/2, nominal].
	want := []sim.Duration{75, 150, 300, 600, 1200, 2400, 4800, 9600, 15000, 15000}
	for attempt, us := range want {
		if got := defaultBackoff(attempt); got != us*sim.Microsecond {
			t.Errorf("attempt %d: delay %v, want %v", attempt, got, us*sim.Microsecond)
		}
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

func pinRetryCap(t *testing.T) {
	r := defaultRetrier()
	budget := reliab.NewBudget(reliab.BudgetConfig{Capacity: 100})
	send := reliab.Send{DstIdx: 0, H: 1}
	for i, want := range []reliab.Verdict{reliab.Parked, reliab.Parked, reliab.Parked, reliab.Denied} {
		if got := r.Bounce(0, 1, nic.NackNotResident, budget, send); got != want {
			t.Fatalf("bounce %d: verdict %v, want %v", i+1, got, want)
		}
	}
	if got := r.NextDue(); got != sim.Time(75*sim.Microsecond) {
		t.Fatalf("first re-send due at %v, want the 75us midpoint", got)
	}
}

// pinRPCBudget calls a server whose host link is down, so every call
// fragment comes back to the client as a transient return and each bounce
// asks the client's budget for that server for a token.
func pinRPCBudget(t *testing.T) {
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
	var retries []int64
	c.Nodes[0].Spawn("client", func(p *sim.Proc) {
		// A one-target pool: an rpc.Client without the wrapper.
		cl, err := rpc.NewPool(c.Nodes[0], 1, rpc.Options{Metrics: m, NoBreaker: true})
		if err == nil {
			_, err = cl.Add(s.Name(), 77)
		}
		if err != nil {
			t.Error(err)
			return
		}
		// Four calls bounce at once: three tokens, so the fourth is denied.
		// After 300 ms one token has come back, and one more call gets it.
		for _, calls := range []int{4, 1} {
			for i := 0; i < calls; i++ {
				if _, err := cl.GoCtx(p, 0, 1, []byte{byte(i)}, reliab.Ctx{}); err != nil {
					t.Error(err)
					return
				}
			}
			// The loop rpc.Pool.IdlePoll is documented to equal: poll, and
			// sleep a tick after a poll that finds nothing.
			for end := p.Now().Add(20 * sim.Millisecond); p.Now() < end; {
				if cl.Poll(p) == 0 {
					p.Sleep(5 * sim.Microsecond)
				}
			}
			retries = append(retries, m.Get("retries"))
			p.Sleep(280 * sim.Millisecond)
		}
	})
	c.RunFor(sim.Second)
	if fmt.Sprint(retries) != "[3 4]" {
		t.Fatalf("retries granted after each round = %v, want [3 4]", retries)
	}
	if got := m.Get("retry_denied"); got != 5 {
		t.Fatalf("retry_denied = %d, want 5 (one per call)", got)
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

// pinProbation flaps node 2: partition until declared dead, heal, reinstate,
// wait out any probation, and partition again 10 ms after it is republished.
func pinProbation(t *testing.T) {
	c := hostos.NewCluster(1, 3, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	mon, err := defaultMonitor(c)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * sim.Millisecond)
	var got []sim.Duration
	for i := 0; i < 9; i++ {
		c.ShardNet(0).SetHostLinkDown(2, true)
		for !mon.Dead(2) {
			c.RunFor(sim.Millisecond)
		}
		got = append(got, mon.Probation(2))
		c.ShardNet(0).SetHostLinkDown(2, false)
		if err := mon.Reinstate(2); err != nil {
			t.Fatal(err)
		}
		for mon.Dead(2) {
			c.RunFor(sim.Millisecond)
		}
		c.RunFor(10 * sim.Millisecond)
	}
	want := []sim.Duration{0, 100, 200, 400, 800, 1600, 3200, 5000, 5000}
	for i := range want {
		want[i] *= sim.Millisecond
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("probation after each death = %v, want %v", got, want)
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
