package vnet

import (
	"errors"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// harness builds a cluster + manager and returns a proc-runner that executes
// fn inside a spawned proc and drives the engine until it finishes.
type harness struct {
	c *hostos.Cluster
	m *Manager
}

func newHarness(t *testing.T, nodes, overcommit int) *harness {
	t.Helper()
	c := hostos.NewCluster(1, nodes, hostos.DefaultClusterConfig())
	return &harness{c: c, m: NewManager(c, overcommit)}
}

func (h *harness) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	h.c.Nodes[0].Spawn("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	h.c.RunFor(5 * sim.Second)
	if !done {
		t.Fatal("test proc did not finish within 5s of virtual time")
	}
}

func TestEchoWithinNetwork(t *testing.T) {
	h := newHarness(t, 4, 4)
	ten, err := h.m.CreateTenant("acme", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if err := ten.AddNIC(n); err != nil {
			t.Fatal(err)
		}
	}
	nw, err := ten.CreateNetwork("prod")
	if err != nil {
		t.Fatal(err)
	}
	a, err := nw.CreateEndpoint("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.CreateEndpoint("b", 2)
	if err != nil {
		t.Fatal(err)
	}
	h.run(t, func(p *sim.Proc) {
		if err := a.Echo(p, b, 50); err != nil {
			t.Errorf("echo: %v", err)
		}
	})
	h.c.RunFor(100 * sim.Millisecond)
	if got := a.ep.Stats.Delivered; got != 50 {
		t.Fatalf("echo replies delivered = %d, want 50", got)
	}
	if msgs, _, _ := ten.Serviced(); msgs == 0 {
		t.Fatal("tenant serviced meter did not move")
	}
	if b.ep.Stats.Delivered < 50 {
		t.Fatalf("server delivered = %d, want >= 50", b.ep.Stats.Delivered)
	}
}

func TestIsolationTypedError(t *testing.T) {
	h := newHarness(t, 2, 4)
	t1, _ := h.m.CreateTenant("red", 4, 1)
	t2, _ := h.m.CreateTenant("blue", 4, 1)
	t1.AddNIC(0)
	t2.AddNIC(1)
	n1, _ := t1.CreateNetwork("net")
	n2, _ := t2.CreateNetwork("net")
	a, err := n1.CreateEndpoint("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n2.CreateEndpoint("b", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Library level: mapping a foreign endpoint is refused with the typed
	// isolation error before anything is posted.
	_, err = a.MapPeer(b)
	var iso *IsolationError
	if !errors.As(err, &iso) {
		t.Fatalf("MapPeer cross-tenant error = %v, want *IsolationError", err)
	}
	if !errors.Is(err, ErrIsolation) {
		t.Fatal("IsolationError does not match ErrIsolation sentinel")
	}
	h.run(t, func(p *sim.Proc) {
		if err := a.Echo(p, b, 1); !errors.Is(err, ErrIsolation) {
			t.Errorf("Echo cross-tenant error = %v, want isolation", err)
		}
	})

	// Fabric level: a forged post (correct name, wrong key — simulated by
	// mapping through the core API directly) is NACKed by the remote NI's
	// key check and classified as an isolation denial on return.
	before := n1.IsolationDenied()
	h.run(t, func(p *sim.Proc) {
		if err := a.ep.Map(10, b.ep.Name(), n1.key); err != nil {
			t.Errorf("forged map: %v", err)
			return
		}
		if err := a.ep.Request(p, 10, HEcho, [4]uint64{}); err != nil {
			t.Errorf("forged request: %v", err)
		}
	})
	h.c.RunFor(200 * sim.Millisecond)
	if n1.IsolationDenied() <= before {
		t.Fatalf("forged cross-network post was not classified as isolation denial (denied=%d)", n1.IsolationDenied())
	}
	if b.ep.Stats.Delivered != 0 {
		t.Fatalf("foreign endpoint delivered %d messages across the boundary", b.ep.Stats.Delivered)
	}
}

func TestQuotaAndAdmission(t *testing.T) {
	h := newHarness(t, 2, 2) // node cap = 8 frames × 2 = 16
	ten, _ := h.m.CreateTenant("small", 3, 1)
	ten.AddNIC(0)
	nw, _ := ten.CreateNetwork("net")
	for i := 0; i < 3; i++ {
		if _, err := nw.CreateEndpoint(epName(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.CreateEndpoint("over", 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota overflow error = %v, want ErrQuota", err)
	}

	// Fill the node to its admission cap with a big tenant, then verify the
	// next creation is refused with ErrAdmission.
	big, _ := h.m.CreateTenant("big", 100, 1)
	big.AddNIC(0)
	bnw, _ := big.CreateNetwork("net")
	for i := 0; h.m.NodeLoad(0) < h.m.NodeCap(); i++ {
		if _, err := bnw.CreateEndpoint(epName(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bnw.CreateEndpoint("over", 0); !errors.Is(err, ErrAdmission) {
		t.Fatalf("admission overflow error = %v, want ErrAdmission", err)
	}

	// Placement on a node without a NIC grant is refused.
	if _, err := nw.CreateEndpoint("x", 1); !errors.Is(err, ErrNoNIC) {
		t.Fatalf("no-NIC placement error = %v, want ErrNoNIC", err)
	}

	// Deleting a network returns its capacity.
	before := h.m.NodeLoad(0)
	h.run(t, func(p *sim.Proc) {
		if err := ten.DeleteNetwork(p, "net"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	if got := h.m.NodeLoad(0); got != before-3 {
		t.Fatalf("node load after delete = %d, want %d", got, before-3)
	}
	if ten.EndpointsInUse() != 0 {
		t.Fatalf("tenant eps after delete = %d, want 0", ten.EndpointsInUse())
	}
}

func TestFaultScoping(t *testing.T) {
	h := newHarness(t, 4, 4)
	ten, _ := h.m.CreateTenant("acme", 8, 1)
	ten.AddNIC(2)
	ten.AddNIC(3)

	// Fabric-wide kinds are refused.
	if _, err := ten.InjectFault("spine:0@1ms+1ms"); !errors.Is(err, ErrFaultScope) {
		t.Fatalf("spine fault error = %v, want ErrFaultScope", err)
	}

	// Node indices are rewritten onto the tenant's NIC grants: index 0 means
	// the tenant's first NIC node (2), not cluster node 0.
	pl, err := ten.InjectFault("reboot:node0@1ms")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Events[0].A != 2 {
		t.Fatalf("scoped reboot target = %d, want 2", pl.Events[0].A)
	}
	if got := h.m.C.Get("fault.inject"); got != 1 {
		t.Fatalf("faults injected = %d, want 1", got)
	}
	h.c.RunFor(50 * sim.Millisecond)
}

func TestNameServiceIntegration(t *testing.T) {
	h := newHarness(t, 2, 4)
	ten, _ := h.m.CreateTenant("acme", 8, 1)
	ten.AddNIC(0)
	ten.AddNIC(1)
	nw, _ := ten.CreateNetwork("net")
	a, _ := nw.CreateEndpoint("a", 0)
	id := a.ep.Segment().EP.ID
	if node, ok := h.m.Dir.Resolve(id); !ok || int(node) != 0 {
		t.Fatalf("directory resolve = (%v,%v), want node 0", node, ok)
	}
	h.run(t, func(p *sim.Proc) {
		if err := nw.DeleteEndpoint(p, "a"); err != nil {
			t.Errorf("delete: %v", err)
		}
	})
	if _, ok := h.m.Dir.Resolve(id); ok {
		t.Fatal("directory still resolves deleted endpoint")
	}
}

func epName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}
