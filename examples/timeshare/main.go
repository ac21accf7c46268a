// Timeshare: two bulk-synchronous Split-C-style applications share the same
// 4-node partition (§6.3). Each application has its own virtual network;
// the endpoint resident sets adapt to whichever application the local
// schedulers run. The demo prints both applications' completion times and
// per-rank communication time.
package main

import (
	"fmt"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/splitc"
)

func main() {
	const nodes = 4
	const iters = 25
	cluster := hostos.NewCluster(3, nodes, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()

	mkApp := func(name string, compute sim.Duration) *splitc.World {
		w, err := splitc.NewWorld(cluster, nodes, 8192, nil)
		if err != nil {
			panic(err)
		}
		w.Launch(func(p *sim.Proc, r *splitc.Rank) {
			buf := make([]byte, 2048)
			for it := 0; it < iters; it++ {
				r.Node().Compute(p, compute)
				r.Store(p, (r.ID()+1)%nodes, 0, buf)
				r.StoreSync(p)
				r.Barrier(p)
			}
			if r.ID() == 0 {
				fmt.Printf("%s finished at t=%v\n", name, sim.Duration(p.Now()))
			}
		})
		return w
	}

	a := mkApp("app-A (2ms/iter)", 2*sim.Millisecond)
	b := mkApp("app-B (3ms/iter)", 3*sim.Millisecond)

	if !cluster.RunUntilDone(sim.Millisecond, sim.Time(60*sim.Second), func() bool { return a.Running() == 0 && b.Running() == 0 }) {
		panic("timeshare demo did not converge")
	}

	report := func(name string, w *splitc.World) {
		var comm, sync sim.Duration
		for i := 0; i < w.Size(); i++ {
			comm += w.Rank(i).CommTime
			sync += w.Rank(i).SyncTime
		}
		fmt.Printf("%s: mean comm/rank %v, mean barrier wait/rank %v\n",
			name, comm/sim.Duration(nodes), sync/sim.Duration(nodes))
	}
	report("app-A", a)
	report("app-B", b)
	fmt.Printf("both applications shared %d nodes; sequential lower bound %v, actual %v\n",
		nodes, iters*(2+3)*sim.Millisecond, sim.Duration(cluster.Now()))
}
