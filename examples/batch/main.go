// Batch: the cluster-OS usage model of Fig. 1. A GLUnix-style scheduler
// space-shares the cluster among queued parallel jobs; each job
// gang-launches on its partition and runs an MPI collective over virtual
// networks. The demo prints the schedule and final utilization.
package main

import (
	"fmt"

	"virtnet/internal/glunix"
	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
)

func main() {
	const nodes = 16
	cluster := hostos.NewCluster(5, nodes, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()
	sched := glunix.NewScheduler(cluster)

	mkJob := func(name string, compute sim.Duration) glunix.JobFn {
		return func(p *sim.Proc, rank int, part []*hostos.Node) {
			if rank != 0 {
				return
			}
			ids := make([]int, len(part))
			for i, n := range part {
				ids[i] = int(n.ID)
			}
			w, err := mpi.NewWorld(cluster, len(part), ids)
			if err != nil {
				panic(err)
			}
			w.Launch(func(q *sim.Proc, c *mpi.Comm) {
				c.Node().Compute(q, compute)
				sum, err := c.Allreduce(q, []float64{1}, mpi.OpSum)
				if err != nil {
					panic(err)
				}
				if c.Rank() == 0 && int(sum[0]) != len(part) {
					panic("allreduce wrong")
				}
			})
			for w.Running() > 0 {
				p.Sleep(sim.Millisecond)
			}
			fmt.Printf("%-8s done at t=%-12v on nodes %v\n", name, sim.Duration(p.Now()), ids)
		}
	}

	jobs := []struct {
		name    string
		width   int
		compute sim.Duration
	}{
		{"wide-A", 12, 20 * sim.Millisecond},
		{"small-B", 4, 10 * sim.Millisecond},
		{"small-C", 4, 30 * sim.Millisecond},
		{"wide-D", 10, 15 * sim.Millisecond},
		{"small-E", 2, 5 * sim.Millisecond},
	}
	for _, j := range jobs {
		if err := sched.Submit(j.width, mkJob(j.name, j.compute)); err != nil {
			panic(err)
		}
	}
	if !sched.Drain(10 * sim.Second) {
		panic("jobs did not drain")
	}
	fmt.Printf("%d jobs completed; cluster utilization %.0f%%\n",
		sched.Completed, 100*sched.Utilization())
}
