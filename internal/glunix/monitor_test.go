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
		t.Fatalf("jobs did not drain: queued=%d allocated=%d", s.queue.Len(), s.allocated)
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
