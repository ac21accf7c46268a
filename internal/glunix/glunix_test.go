package glunix

import (
	"testing"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/netsim"
	"virtnet/internal/sim"
)

func newCluster(t *testing.T, n int) *hostos.Cluster {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	return c
}

func sleepJob(d sim.Duration) JobFn {
	return func(p *sim.Proc, rank int, nodes []*hostos.Node) {
		nodes[rank].Compute(p, d)
	}
}

// timedJob is sleepJob that records when its gang started and when its last
// rank finished.
func timedJob(d sim.Duration, start, end *sim.Time) JobFn {
	return func(p *sim.Proc, rank int, nodes []*hostos.Node) {
		*start = p.Now()
		nodes[rank].Compute(p, d)
		*end = max(*end, p.Now())
	}
}

func TestSpaceSharingDisjointPartitions(t *testing.T) {
	c := newCluster(t, 8)
	s := NewScheduler(c)
	var s1, s2, end sim.Time
	ranOn := map[netsim.NodeID]int{}
	job := func(start *sim.Time) JobFn {
		timed := timedJob(10*sim.Millisecond, start, &end)
		return func(p *sim.Proc, rank int, nodes []*hostos.Node) {
			ranOn[nodes[rank].ID]++
			timed(p, rank, nodes)
		}
	}
	submitted := c.Now()
	s.Submit(4, job(&s1))
	s.Submit(4, job(&s2))
	if !s.Drain(sim.Second) {
		t.Fatal("jobs did not drain")
	}
	// Both ran concurrently on disjoint nodes.
	if s1.Sub(submitted) != 0 || s2.Sub(submitted) != 0 {
		t.Fatalf("queue waits: %v %v, want both 0 (space-shared)", s1.Sub(submitted), s2.Sub(submitted))
	}
	if len(ranOn) != 8 {
		t.Fatalf("the two jobs' 8 ranks ran on %d nodes, want 8 (%v)", len(ranOn), ranOn)
	}
	if len(s.free) != 8 {
		t.Fatalf("free = %d after drain", len(s.free))
	}
}

func TestFIFOQueueingWhenFull(t *testing.T) {
	c := newCluster(t, 4)
	s := NewScheduler(c)
	var s1, e1, s2, e2 sim.Time
	submitted := c.Now()
	if err := s.Submit(4, timedJob(20*sim.Millisecond, &s1, &e1)); err != nil {
		t.Fatal(err)
	}
	s.Submit(2, timedJob(5*sim.Millisecond, &s2, &e2))
	s.Submit(2, sleepJob(5*sim.Millisecond))
	if s.queue.Len() != 2 {
		t.Fatal("jobs not queued while cluster is full")
	}
	if !s.Drain(sim.Second) {
		t.Fatal("did not drain")
	}
	// j2 and j3 start only after j1 finishes.
	if s2.Sub(submitted) < 20*sim.Millisecond {
		t.Fatalf("j2 waited %v, want >= j1's runtime", s2.Sub(submitted))
	}
	if e1.Sub(s1) < 20*sim.Millisecond {
		t.Fatalf("j1 runtime %v", e1.Sub(s1))
	}
}

func TestGangLaunchSameInstant(t *testing.T) {
	c := newCluster(t, 4)
	s := NewScheduler(c)
	var starts []sim.Time
	s.Submit(4, func(p *sim.Proc, rank int, nodes []*hostos.Node) {
		starts = append(starts, p.Now())
	})
	if !s.Drain(sim.Second) || len(starts) != 4 {
		t.Fatal("job not done")
	}
	for _, st := range starts {
		if st != starts[0] {
			t.Fatalf("ranks started at different times: %v", starts)
		}
	}
}

func TestTooWideRejected(t *testing.T) {
	c := newCluster(t, 2)
	s := NewScheduler(c)
	if err := s.Submit(3, sleepJob(1)); err != ErrTooWide {
		t.Fatalf("err = %v", err)
	}
	if err := s.Submit(0, sleepJob(1)); err == nil {
		t.Fatal("zero-width job accepted")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	c := newCluster(t, 4)
	s := NewScheduler(c)
	// Half the cluster busy for the whole interval -> utilization ~0.5.
	s.Submit(2, sleepJob(100*sim.Millisecond))
	c.RunFor(100 * sim.Millisecond)
	u := s.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %.2f, want ~0.5", u)
	}
}

func TestJobsCommunicateOverVirtualNetworks(t *testing.T) {
	// A scheduled job builds an MPI world over its allocated partition and
	// runs an allreduce — the full stack under the batch scheduler.
	c := newCluster(t, 6)
	s := NewScheduler(c)
	var sum float64
	launched := false
	err := s.Submit(4, func(p *sim.Proc, rank int, nodes []*hostos.Node) {
		if rank != 0 {
			return // rank 0 drives the world construction + Launch
		}
		ids := make([]int, len(nodes))
		for i, n := range nodes {
			ids[i] = int(n.ID)
		}
		w, err := mpi.NewWorld(c, len(nodes), ids)
		if err != nil {
			t.Errorf("world: %v", err)
			return
		}
		w.Launch(func(q *sim.Proc, cm *mpi.Comm) {
			out, err := cm.Allreduce(q, []float64{float64(cm.Rank() + 1)}, mpi.OpSum)
			if err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			if cm.Rank() == 0 {
				sum = out[0]
			}
		})
		launched = true
		for w.Running() > 0 {
			p.Sleep(sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(10 * sim.Second) {
		t.Fatal("did not drain")
	}
	if !launched {
		t.Fatal("job did not run")
	}
	if sum != 10 { // 1+2+3+4
		t.Fatalf("allreduce sum = %v, want 10", sum)
	}
}

func TestManyJobsThroughput(t *testing.T) {
	c := newCluster(t, 10)
	s := NewScheduler(c)
	for i := 0; i < 20; i++ {
		w := i%3 + 1
		s.Submit(w, sleepJob(sim.Duration(1+i%4)*sim.Millisecond))
	}
	if !s.Drain(5 * sim.Second) {
		t.Fatal("did not drain")
	}
	if s.Completed != 20 {
		t.Fatalf("completed = %d", s.Completed)
	}
	if len(s.free) != 10 {
		t.Fatalf("free = %d", len(s.free))
	}
}

// The batch layer composes with a standing service: a job and a client/
// server pair share the cluster; both make progress.
func TestJobsCoexistWithServices(t *testing.T) {
	c := newCluster(t, 4)
	s := NewScheduler(c)

	// Standing service on nodes 2,3 (outside scheduler control in this
	// test: the scheduler still allocates them, showing time-sharing).
	bs := core.Attach(c.Nodes[2])
	sep, _ := bs.NewEndpoint(50, 2)
	bc := core.Attach(c.Nodes[3])
	cep, _ := bc.NewEndpoint(51, 2)
	sep.Map(0, cep.Name(), 51)
	cep.Map(0, sep.Name(), 50)
	served := 0
	sep.SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
		served++
		tok.Reply(p, 2, a)
	})
	cep.SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
	stop := false
	c.Nodes[2].Spawn("svc", func(p *sim.Proc) {
		for !stop {
			if sep.Poll(p) == 0 {
				p.Sleep(10 * sim.Microsecond)
			}
		}
	})
	c.Nodes[3].Spawn("svc-client", func(p *sim.Proc) {
		for !stop {
			cep.Request(p, 0, 1, [4]uint64{})
			cep.Poll(p)
			p.Sleep(100 * sim.Microsecond)
		}
	})

	s.Submit(4, sleepJob(20*sim.Millisecond)) // uses all nodes incl. 2,3
	ok := s.Drain(sim.Second)
	stop = true
	if !ok {
		t.Fatal("job did not finish alongside the service")
	}
	if served == 0 {
		t.Fatal("service starved while the job ran")
	}
}
