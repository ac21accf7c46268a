// Parallelfs: the high-performance parallel I/O subsystem of Fig. 1
// (compare River). A file is striped across storage servers; several
// writer nodes stream disjoint regions concurrently, so aggregate I/O
// bandwidth scales with the stripe width instead of funneling through one
// node — the demo runs the same workload against 1 server and 4 servers
// and reports the aggregate rates.
package main

import (
	"fmt"

	"virtnet/internal/hostos"
	"virtnet/internal/pfs"
	"virtnet/internal/sim"
)

const (
	writers    = 4
	perWriter  = 1 * 1024 * 1024
	stripeUnit = 65536
)

func run(servers int) float64 {
	cluster := hostos.NewCluster(5, servers+writers, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()
	var nodes []*hostos.Node
	for i := 0; i < servers; i++ {
		nodes = append(nodes, cluster.Nodes[i])
	}
	fs, err := pfs.New(nodes, stripeUnit)
	if err != nil {
		panic(err)
	}
	defer fs.Stop()

	done := 0
	var start, end sim.Time
	created := false
	for w := 0; w < writers; w++ {
		w := w
		node := cluster.Nodes[servers+w]
		node.Spawn("writer", func(p *sim.Proc) {
			cl, err := fs.NewClient(node)
			if err != nil {
				panic(err)
			}
			if w == 0 {
				if err := cl.Create(p, "big"); err != nil {
					panic(err)
				}
				created = true
				start = p.Now()
			}
			for !created {
				p.Sleep(10 * sim.Microsecond)
			}
			data := make([]byte, perWriter)
			for i := range data {
				data[i] = byte(w + i)
			}
			if err := cl.WriteAt(p, "big", w*perWriter, data); err != nil {
				panic(err)
			}
			done++
			if done == writers {
				end = p.Now()
			}
		})
	}
	if !cluster.RunUntilDone(10*sim.Millisecond, sim.Time(60*sim.Second), func() bool { return done == writers }) {
		panic("parallelfs demo did not converge")
	}
	total := float64(writers * perWriter)
	mbps := total / end.Sub(start).Seconds() / 1e6
	fmt.Printf("%d servers, %d writers: aggregate write %.1f MB/s\n", servers, writers, mbps)
	return mbps
}

func main() {
	one := run(1)
	four := run(4)
	fmt.Printf("striping across 4 servers raised aggregate bandwidth %.1fx\n", four/one)
	if four < 1.8*one {
		panic("striping did not scale aggregate bandwidth")
	}
}
