// Quickstart: build a 4-node simulated cluster, wire four endpoints into a
// virtual network, and run a ring of request/reply exchanges, printing the
// round-trip times each hop sees.
package main

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

const (
	hPing = 1
	hPong = 2
)

func main() {
	const nodes = 4
	cluster := hostos.NewCluster(42, nodes, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()

	// One endpoint per node, fully meshed into a virtual network with
	// virtual-node-number addressing (translation index = node).
	eps := make([]*core.Endpoint, nodes)
	for i := 0; i < nodes; i++ {
		bundle := core.Attach(cluster.Nodes[i])
		ep, err := bundle.NewEndpoint(core.Key(100+i), nodes)
		if err != nil {
			panic(err)
		}
		eps[i] = ep
	}
	if err := core.MakeVirtualNetwork(eps); err != nil {
		panic(err)
	}

	// Handlers: hPing echoes back; hPong records the round trip.
	pongs := make([]int, nodes)
	for i, ep := range eps {
		i := i
		ep.SetHandler(hPing, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			tok.Reply(p, hPong, args)
		})
		ep.SetHandler(hPong, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			rtt := p.Now().Sub(sim.Time(args[0]))
			fmt.Printf("node %d <- %v: rtt %v\n", i, tok.Source(), rtt)
			pongs[i]++
		})
	}

	// Each node pings its ring successor 3 times while polling.
	for i := range eps {
		i := i
		ep := eps[i]
		cluster.Nodes[i].Spawn("app", func(p *sim.Proc) {
			next := (i + 1) % nodes
			for round := 0; round < 3; round++ {
				if err := ep.Request(p, next, hPing, [4]uint64{uint64(p.Now())}); err != nil {
					panic(err)
				}
				target := round + 1
				for pongs[i] < target {
					if ep.Poll(p) == 0 {
						p.Sleep(sim.Microsecond)
					}
				}
			}
		})
	}

	cluster.RunFor(sim.Second)
	fmt.Printf("done at t=%v; all %d nodes completed 3 ring round trips\n",
		sim.Duration(cluster.Now()), nodes)
}
