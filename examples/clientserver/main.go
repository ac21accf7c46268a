// Clientserver: a §6.4-style multi-client service. A server node exports
// one endpoint per client; each server endpoint is driven by its own
// event-driven thread (the MT configuration), so threads sleep until their
// endpoint's event mask fires. Twelve clients on dedicated nodes stream
// requests at a server with only 8 endpoint frames — an overcommitted
// configuration in which the OS remaps endpoints on demand while throughput
// stays robust.
package main

import (
	"fmt"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

const (
	hReq = 1
	hRep = 2
)

func main() {
	const clients = 12
	cluster := hostos.NewCluster(7, clients+1, hostos.DefaultClusterConfig())
	defer cluster.Shutdown()
	server := cluster.Nodes[0]

	served := make([]int, clients)
	received := make([]int, clients)

	for i := 0; i < clients; i++ {
		i := i
		// Server side: endpoint + event-driven thread.
		sb := core.Attach(server)
		sep, _ := sb.NewEndpoint(core.Key(1000+i), 2)
		sep.SetEventMask(true)
		sep.SetHandler(hReq, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			served[i]++
			tok.Reply(p, hRep, args)
		})
		server.Spawn(fmt.Sprintf("worker%d", i), func(p *sim.Proc) {
			for {
				sb.Wait(p)
				for sep.Poll(p) > 0 {
				}
			}
		})

		// Client side.
		cb := core.Attach(cluster.Nodes[i+1])
		cep, _ := cb.NewEndpoint(core.Key(2000+i), 2)
		cep.Map(0, sep.Name(), core.Key(1000+i))
		sep.Map(0, cep.Name(), core.Key(2000+i))
		cep.SetHandler(hRep, func(p *sim.Proc, tok *core.Token, args [4]uint64, _ []byte) {
			received[i]++
		})
		cluster.Nodes[i+1].Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			for {
				if err := cep.Request(p, 0, hReq, [4]uint64{}); err != nil {
					return
				}
				cep.Poll(p)
			}
		})
	}

	const window = 500 * sim.Millisecond
	cluster.RunFor(window)

	total := 0
	for i, s := range served {
		fmt.Printf("client %2d: %6d served (%.0f req/s)\n", i, s, float64(s)/window.Seconds())
		total += s
	}
	fmt.Printf("aggregate: %.0f req/s across %d clients with %d endpoint frames (%d server endpoints)\n",
		float64(total)/window.Seconds(), clients,
		server.NIC.Config().Frames, clients)
	fmt.Printf("endpoint re-mappings performed by the OS: %d\n", server.Driver.Remaps())
}
