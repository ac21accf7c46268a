package glunix

import (
	"slices"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

type fakeNames struct{ dropped []netsim.NodeID }

func (f *fakeNames) DropNode(n netsim.NodeID) int {
	f.dropped = append(f.dropped, n)
	return 0
}

// A node crash must be detected by missed heartbeats; the dead node's gang
// job is killed and requeued onto live nodes, the name service is told to
// drop the node, and the OnDead hook fires — while unaffected jobs and the
// rest of the cluster keep running.
func TestMonitorDeclaresDeathAndRequeuesJobs(t *testing.T) {
	c := hostos.NewCluster(3, 6, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	s := NewScheduler(c)
	names := &fakeNames{}
	mon, err := NewMonitor(c, s, names)
	if err != nil {
		t.Fatal(err)
	}
	var hookNodes []int
	mon.OnDead(func(p *sim.Proc, node int) { hookNodes = append(hookNodes, node) })

	// finished[i] lists the nodes on which job i's ranks returned.
	finished := make([][]netsim.NodeID, 4)
	for i := range finished {
		err := s.Submit(2, func(p *sim.Proc, rank int, nodes []*hostos.Node) {
			p.Sleep(40 * sim.Millisecond)
			finished[i] = append(finished[i], nodes[rank].ID)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Nodes[2].E.AfterFunc(20*sim.Millisecond, func() { c.Nodes[2].Crash() })

	if !s.Drain(2 * sim.Second) {
		t.Fatalf("jobs did not drain: queued=%d allocated=%d", len(s.queue), s.allocated)
	}
	if !mon.Dead(2) || !s.dead[2] {
		t.Fatal("node 2 not declared dead")
	}
	if mon.Deaths != 1 {
		t.Fatalf("Deaths = %d, want 1", mon.Deaths)
	}
	if s.Requeued == 0 {
		t.Fatal("the dead node's job was never requeued")
	}
	if len(hookNodes) != 1 || hookNodes[0] != 2 {
		t.Fatalf("OnDead hooks fired for %v, want [2]", hookNodes)
	}
	if len(names.dropped) != 1 || names.dropped[0] != 2 {
		t.Fatalf("name service drops = %v, want [2]", names.dropped)
	}
	for i, ran := range finished {
		if len(ran) < 2 {
			t.Fatalf("job %d: %d ranks returned, want 2", i, len(ran))
		}
		if slices.Contains(ran, 2) {
			t.Fatalf("job %d finished on dead node 2 (ranks returned on %v)", i, ran)
		}
	}
	if mon.Beats == 0 {
		t.Fatal("master never heard a heartbeat")
	}
}

// A firmware reboot is a benign outage well under the silence threshold:
// the monitor must not false-positive.
func TestMonitorToleratesFirmwareReboot(t *testing.T) {
	c := hostos.NewCluster(5, 4, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	mon, err := NewMonitor(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[1].E.AfterFunc(30*sim.Millisecond, func() { c.Nodes[1].NIC.Reboot(2 * sim.Millisecond) })
	c.RunFor(300 * sim.Millisecond)
	if mon.Deaths != 0 {
		t.Fatalf("monitor declared %d deaths across a 2 ms reboot", mon.Deaths)
	}
}

// Reinstate returns a restarted node to service: beats resume, the
// scheduler can allocate it again.
func TestReinstateAfterRestart(t *testing.T) {
	c := hostos.NewCluster(11, 3, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	s := NewScheduler(c)
	mon, err := NewMonitor(c, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Nodes[2].E.AfterFunc(10*sim.Millisecond, func() { c.Nodes[2].Crash() })
	c.RunFor(200 * sim.Millisecond)
	if !mon.Dead(2) {
		t.Fatal("node 2 not declared dead")
	}
	c.Nodes[2].Restart()
	if err := mon.Reinstate(2); err != nil {
		t.Fatal(err)
	}
	beatsAt := mon.Beats
	c.RunFor(100 * sim.Millisecond)
	if mon.Dead(2) {
		t.Fatal("reinstated node re-declared dead")
	}
	if mon.Beats <= beatsAt {
		t.Fatal("no beats from the reinstated node")
	}
	ranks := 0
	err = s.Submit(3, func(p *sim.Proc, rank int, nodes []*hostos.Node) { ranks++ })
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(time500ms) || ranks != 3 {
		t.Fatal("width-3 job needs the reinstated node and never ran")
	}
}

// A reinstated node must be watched exactly like a fresh one: if it goes
// silent again it is re-declared dead. The death here comes from a network
// partition, not a crash — the original beater survives it, so Reinstate
// must retire that survivor instead of stacking a duplicate beater (and
// leaking its endpoint) per reinstate cycle.
func TestReinstateRedeathAfterPartition(t *testing.T) {
	c := hostos.NewCluster(13, 3, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	mon, err := NewMonitor(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * sim.Millisecond)
	epsSteady := c.Nodes[2].Driver.NumEndpoints()

	// Partition node 2 past the silence threshold: declared dead, but the
	// beater proc is still alive behind the downed link.
	c.ShardNet(0).SetHostLinkDown(2, true)
	c.RunFor(100 * sim.Millisecond)
	if !mon.Dead(2) || mon.Deaths != 1 {
		t.Fatalf("after partition: dead=%v deaths=%d, want dead once", mon.Dead(2), mon.Deaths)
	}

	// Heal and reinstate: beats resume, and the superseded beater must
	// retire — the node's endpoint count returns to steady state.
	c.ShardNet(0).SetHostLinkDown(2, false)
	if err := mon.Reinstate(2); err != nil {
		t.Fatal(err)
	}
	beatsAt := mon.Beats
	c.RunFor(100 * sim.Millisecond)
	if mon.Dead(2) {
		t.Fatal("reinstated node re-declared dead while beating")
	}
	if mon.Beats <= beatsAt {
		t.Fatal("no beats from the reinstated node")
	}
	if got := c.Nodes[2].Driver.NumEndpoints(); got != epsSteady {
		t.Fatalf("node 2 has %d endpoints after reinstate, want %d (old beater leaked)", got, epsSteady)
	}

	// Silence it again: the monitor must re-declare the same node dead.
	c.ShardNet(0).SetHostLinkDown(2, true)
	c.RunFor(100 * sim.Millisecond)
	if !mon.Dead(2) || mon.Deaths != 2 {
		t.Fatalf("after second partition: dead=%v deaths=%d, want re-death", mon.Dead(2), mon.Deaths)
	}

	// And a second reinstate works just the same — except that dying twice
	// in quick succession looks like a flap, so this one sits out the base
	// probation before the node is republished.
	c.ShardNet(0).SetHostLinkDown(2, false)
	if err := mon.Reinstate(2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(100*sim.Millisecond + probationBase)
	if mon.Dead(2) {
		t.Fatal("second reinstate did not stick")
	}
	if got := c.Nodes[2].Driver.NumEndpoints(); got != epsSteady {
		t.Fatalf("node 2 has %d endpoints after second reinstate, want %d", got, epsSteady)
	}
}

const time500ms = 500 * sim.Millisecond

// runFlapper drives a hostile flap loop against node 2 for the given span:
// partition until declared dead, heal and reinstate, wait for republish,
// flap again after a token uptime. Returns the monitor for inspection.
func runFlapper(t *testing.T, seed int64, span sim.Duration) (*Monitor, *Scheduler) {
	t.Helper()
	c := hostos.NewCluster(seed, 3, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	s := NewScheduler(c)
	mon, err := NewMonitor(c, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A width-3 gang occupies the flapping node, so every death requeues it:
	// the requeue churn the damping is there to bound.
	if err := s.Submit(3, func(p *sim.Proc, rank int, nodes []*hostos.Node) {
		for {
			p.Sleep(10 * sim.Millisecond)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c.Nodes[0].Spawn("flapper", func(p *sim.Proc) {
		for {
			c.ShardNet(0).SetHostLinkDown(2, true)
			for !mon.Dead(2) {
				p.Sleep(5 * sim.Millisecond)
			}
			c.ShardNet(0).SetHostLinkDown(2, false)
			if err := mon.Reinstate(2); err != nil {
				t.Errorf("reinstate: %v", err)
				return
			}
			for mon.Dead(2) {
				p.Sleep(5 * sim.Millisecond)
			}
			p.Sleep(10 * sim.Millisecond)
		}
	})
	c.RunFor(span)
	return mon, s
}

// TestFlapProbationBoundsRequeueChurn: a hostile flapper re-partitions node
// 2 10 ms after every reinstatement. Undamped, that is a death and a gang
// requeue every ~80 ms. With probation doubling from probationBase, the
// probations alone (0, 100, 200, 400, 800, 1600 ms) outlast the 3 s span by
// the seventh death, so at most six fit, each requeueing the gang once.
func TestFlapProbationBoundsRequeueChurn(t *testing.T) {
	mon, s := runFlapper(t, 21, 3*sim.Second)
	if mon.Deaths < 2 || mon.Deaths > 6 {
		t.Fatalf("deaths = %d, want 2-6: the flapper must flap, and probation must hold it down", mon.Deaths)
	}
	if s.Requeued > mon.Deaths {
		t.Fatalf("requeues = %d for %d deaths", s.Requeued, mon.Deaths)
	}
	if mon.Probation(2) < 2*probationBase {
		t.Fatalf("probation did not grow: %v", mon.Probation(2))
	}
}
