package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/ctlplane"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/sim"
	"virtnet/internal/vnet"
)

// tenantsRow retells the paper's §5 overcommit story as multi-tenant
// interference under metered WRR shares: three tenants (shares 4:2:1) place
// more client endpoints on one node than its NI has frames, stream echo
// traffic to per-tenant server nodes, and the NI's weighted loiter budget
// divides send service in share proportion while the segment driver churns
// endpoints through the frames. Everything is driven through the ctlplane
// API — the same surface cmd/vnproxyd serves — across two full
// create→traffic→fault→delete cycles, so the run doubles as a tenant-churn
// soak of the control plane.
func tenantsRow(w io.Writer, p Params) error {
	header(w, "multi-tenant control plane — §5 overcommit as metered WRR shares (3 tenants on one NI)")

	cc := hostos.DefaultClusterConfig()
	// Meter aggressively: with the stock parameters the flows are
	// credit-limited (32-entry windows drain before the 64-msg loiter
	// budget binds) and the WRR degenerates to round-robin. Deep credit
	// windows keep every client endpoint backlogged so the NI send
	// processor is the contended resource, and a small per-weight budget
	// (8×share msgs) divides it in share proportion.
	cc.NIC.RecvQDepth = 256
	cc.NIC.LoiterMsgs = 8
	cc.NIC.LoiterTime = 250 * sim.Microsecond
	c := hostos.NewCluster(p.Seed, 8, cc)
	defer c.Shutdown()
	c.EnableObs(obs.Options{})
	m := vnet.NewManager(c, 2) // node cap = 8 frames × 2 = 16 endpoints
	srv := ctlplane.NewServer(m)

	// A control-plane op that fails fails the row; the ops after it still
	// run so the transcript shows what the failure did.
	var opErr error
	ok := func(req ctlplane.Request) ctlplane.Response {
		resp := srv.Handle(req)
		if !resp.OK {
			fmt.Fprintf(w, "FAIL op %s: %s\n", req.Op, resp.Err)
			opErr = errors.Join(opErr, fmt.Errorf("op %s: %s", req.Op, resp.Err))
		}
		return resp
	}

	tenants := []struct {
		name       string
		share      int
		serverNode int
	}{
		{"gold", 4, 1},
		{"silver", 2, 2},
		{"bronze", 1, 3},
	}
	const clients = 4 // per tenant, all on node 0: 12 clients on 8 frames
	const (
		window = 100 * sim.Millisecond
		msgs   = 20000
	)
	frames := c.Nodes[0].NIC.Config().Frames
	fmt.Fprintf(w, "node0 NI: %d frames, admission cap %d; %d tenants × %d clients = %d endpoints (%.1f:1 overcommit)\n",
		frames, m.NodeCap(), len(tenants), clients, len(tenants)*clients,
		float64(len(tenants)*clients)/float64(frames))

	for cycle := 1; cycle <= 2; cycle++ {
		fmt.Fprintf(w, "\n-- cycle %d --\n", cycle)

		// Create: tenant, NIC grants, network, client/server endpoint pairs.
		for _, tn := range tenants {
			node0, sn := 0, tn.serverNode
			ok(ctlplane.Request{Op: "create-tenant", Tenant: tn.name, Quota: 2 * clients, Share: tn.share})
			ok(ctlplane.Request{Op: "add-nic", Tenant: tn.name, Node: &node0})
			ok(ctlplane.Request{Op: "add-nic", Tenant: tn.name, Node: &sn})
			ok(ctlplane.Request{Op: "create-network", Tenant: tn.name, Network: "prod"})
			for i := 0; i < clients; i++ {
				cn, sv := 0, tn.serverNode
				ok(ctlplane.Request{Op: "create-endpoint", Tenant: tn.name, Network: "prod",
					Endpoint: fmt.Sprintf("c%d", i), Node: &cn})
				ok(ctlplane.Request{Op: "create-endpoint", Tenant: tn.name, Network: "prod",
					Endpoint: fmt.Sprintf("s%d", i), Node: &sv})
			}
		}

		if cycle == 1 {
			// Policy boundaries, typed errors (§5 admission + isolation).
			gold, _ := m.Tenant("gold")
			gnw, _ := gold.Network("prod")
			if _, err := gnw.CreateEndpoint("extra", 0); err != nil {
				fmt.Fprintf(w, "quota:     %v\n", err)
			}
			filler, _ := m.CreateTenant("filler", 100, 1)
			filler.AddNIC(0)
			fnw, _ := filler.CreateNetwork("net")
			for m.NodeLoad(0) < m.NodeCap() {
				fnw.CreateEndpoint(fmt.Sprintf("f%d", m.NodeLoad(0)), 0)
			}
			if _, err := fnw.CreateEndpoint("over", 0); err != nil {
				fmt.Fprintf(w, "admission: %v\n", err)
			}
			silver, _ := m.Tenant("silver")
			snw, _ := silver.Network("prod")
			gc, _ := gnw.Endpoint("c0")
			ss, _ := snw.Endpoint("s0")
			if _, err := gc.MapPeer(ss); err != nil {
				fmt.Fprintf(w, "isolation: %v\n", err)
			}
			ok(ctlplane.Request{Op: "delete-tenant", Tenant: "filler"})
		}

		// Traffic: each client streams echoes to its own server, all client
		// endpoints contending for node0's frames and WRR service.
		type base struct{ svc, del int64 }
		bases := map[string]base{}
		for _, tn := range tenants {
			t, _ := m.Tenant(tn.name)
			svc, _, del := t.Serviced()
			bases[tn.name] = base{svc, del}
			for i := 0; i < clients; i++ {
				ok(ctlplane.Request{Op: "traffic", Tenant: tn.name, Network: "prod",
					Endpoint: fmt.Sprintf("c%d", i), Peer: fmt.Sprintf("s%d", i), Count: msgs})
			}
		}
		ok(ctlplane.Request{Op: "advance", Dur: window.String()})

		var totalSvc int64
		type row struct {
			name     string
			share    int
			svc, del int64
		}
		rows := make([]row, 0, len(tenants))
		for _, tn := range tenants {
			t, _ := m.Tenant(tn.name)
			svc, _, del := t.Serviced()
			r := row{tn.name, tn.share, svc - bases[tn.name].svc, del - bases[tn.name].del}
			rows = append(rows, r)
			totalSvc += r.svc
		}
		fmt.Fprintf(w, "%-8s %5s %6s %10s %10s %8s %10s\n",
			"tenant", "share", "eps", "svc_msgs", "delivered", "svc_pct", "pct/share")
		for _, r := range rows {
			t, _ := m.Tenant(r.name)
			pct := 100 * float64(r.svc) / float64(totalSvc)
			fmt.Fprintf(w, "%-8s %5d %6d %10d %10d %7.1f%% %9.2f%%\n",
				r.name, r.share, t.EndpointsInUse(), r.svc, r.del, pct, pct/float64(r.share))
		}
		fmt.Fprintf(w, "wrr rounds on node0: %d, loiter expiries: %d\n",
			c.Nodes[0].NIC.C.Get("wrr.rounds"), c.Nodes[0].NIC.C.Get("wrr.loiter_expiry"))

		// Fault: gold reboots its own server node (index 1 of its NIC grants
		// — tenant-scoped, it cannot name anyone else's nodes). Gold's
		// delivery stalls through the outage; the others keep their shares.
		resp := ok(ctlplane.Request{Op: "inject-fault", Tenant: "gold", Plan: "reboot:node1@1ms+5ms"})
		fmt.Fprintf(w, "fault (scoped to gold): %s\n", resp.Result)
		for _, tn := range tenants {
			t, _ := m.Tenant(tn.name)
			_, _, del := t.Serviced()
			bases[tn.name] = base{0, del}
		}
		ok(ctlplane.Request{Op: "advance", Dur: (20 * sim.Millisecond).String()})
		fmt.Fprintf(w, "delivered through gold's 5ms server outage (20ms window): ")
		for i, tn := range tenants {
			t, _ := m.Tenant(tn.name)
			_, _, del := t.Serviced()
			if i > 0 {
				fmt.Fprintf(w, ", ")
			}
			fmt.Fprintf(w, "%s %d", tn.name, del-bases[tn.name].del)
		}
		fmt.Fprintln(w)

		// Delete: full teardown returns every frame and name binding.
		for _, tn := range tenants {
			ok(ctlplane.Request{Op: "delete-tenant", Tenant: tn.name})
		}
		fmt.Fprintf(w, "after teardown: node0 load %d/%d, tenants %d, ops so far %d\n",
			m.NodeLoad(0), m.NodeCap(), len(m.Tenants()), srv.NextSeq()-1)
	}
	return opErr
}
