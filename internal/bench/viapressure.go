package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
	"virtnet/internal/via"
)

// viaPressureConfig parameterizes the §7 comparison: a parallel program on
// n nodes needs n^2 VIs for full connectivity under the Virtual Interface
// Architecture, where virtual networks need a single endpoint per process.
// Because each VI occupies an endpoint frame when active, VI-per-pair
// provisioning overcommits the NI long before endpoint pooling does.
type viaPressureConfig struct {
	Nodes  int
	Rounds int // each process messages every peer once per round
	Seed   int64
}

// viaPressureWindow bounds each half of the comparison in virtual time.
const viaPressureWindow = 100 * sim.Second

// viaPressureResult compares the two provisioning models.
type viaPressureResult struct {
	// Endpoints consumed per node under each model.
	VNEndpointsPerNode  int
	VIAEndpointsPerNode int
	// Completion time of the same all-pairs workload.
	VNTime  sim.Duration
	VIATime sim.Duration
	// Endpoint re-mappings during the run (zero when the resident set fits).
	VNRemaps  int64
	VIARemaps int64
}

// runVIAPressure executes the same all-pairs exchange over virtual networks
// and over a VIA full mesh, on identical clusters (8 NI frames each).
func runVIAPressure(cfg viaPressureConfig) (viaPressureResult, bool) {
	res := viaPressureResult{
		VNEndpointsPerNode:  1,
		VIAEndpointsPerNode: cfg.Nodes - 1,
	}

	// ---- Virtual networks: one endpoint per process. ----
	{
		cl := hostos.NewCluster(cfg.Seed+1, cfg.Nodes, hostos.DefaultClusterConfig())
		eps := make([]*core.Endpoint, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			b := core.Attach(cl.Nodes[i])
			eps[i], _ = b.NewEndpoint(core.Key(100+i), cfg.Nodes)
		}
		if err := core.MakeVirtualNetwork(eps); err != nil {
			cl.Shutdown()
			return res, false
		}
		got := make([]int, cfg.Nodes)
		for i := range eps {
			i := i
			eps[i].SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
				got[i]++
				tok.Reply(p, 2, a)
			})
			eps[i].SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
		}
		running := cfg.Nodes
		start := cl.Now()
		for i := 0; i < cfg.Nodes; i++ {
			i := i
			cl.Nodes[i].Spawn("vn", func(p *sim.Proc) {
				defer func() { running-- }()
				want := cfg.Rounds * (cfg.Nodes - 1)
				for r := 0; r < cfg.Rounds; r++ {
					for j := 0; j < cfg.Nodes; j++ {
						if j == i {
							continue
						}
						eps[i].Request(p, j, 1, [4]uint64{})
					}
					eps[i].Poll(p)
				}
				for got[i] < want {
					if eps[i].Poll(p) == 0 {
						p.Sleep(10 * sim.Microsecond)
					}
				}
			})
		}
		if !cl.RunUntilDone(sim.Millisecond, cl.Now().Add(viaPressureWindow), func() bool { return running == 0 }) {
			cl.Shutdown()
			return res, false
		}
		res.VNTime = cl.Now().Sub(start)
		for _, n := range cl.Nodes {
			res.VNRemaps += n.Driver.Remaps()
		}
		cl.Shutdown()
	}

	// ---- VIA: a VI (endpoint) per pair, n^2 total. ----
	{
		cl := hostos.NewCluster(cfg.Seed+1, cfg.Nodes, hostos.DefaultClusterConfig())
		nics := make([]*via.NIC, cfg.Nodes)
		for i := range nics {
			nics[i] = via.Open(cl.Nodes[i])
		}
		vis, recvCQs, err := via.FullMesh(nics)
		if err != nil {
			cl.Shutdown()
			return res, false
		}
		running := cfg.Nodes
		start := cl.Now()
		for i := 0; i < cfg.Nodes; i++ {
			i := i
			cl.Nodes[i].Spawn("via", func(p *sim.Proc) {
				defer func() { running-- }()
				// Post receives for everything we expect.
				for j := 0; j < cfg.Nodes; j++ {
					if j == i {
						continue
					}
					for r := 0; r < cfg.Rounds; r++ {
						h := nics[i].RegisterMemory(make([]byte, 16))
						vis[i][j].PostRecv(h)
					}
				}
				send := nics[i].RegisterMemory(make([]byte, 16))
				want := cfg.Rounds * (cfg.Nodes - 1)
				seen := 0
				for r := 0; r < cfg.Rounds; r++ {
					for j := 0; j < cfg.Nodes; j++ {
						if j == i {
							continue
						}
						vis[i][j].PostSend(p, send, 16)
					}
					seen += drainCQ(recvCQs[i])
				}
				for seen < want {
					polled := 0
					for j := 0; j < cfg.Nodes; j++ {
						if j != i {
							polled += vis[i][j].Poll(p)
						}
					}
					seen += drainCQ(recvCQs[i])
					if polled == 0 {
						p.Sleep(10 * sim.Microsecond)
					}
				}
			})
		}
		if !cl.RunUntilDone(sim.Millisecond, cl.Now().Add(viaPressureWindow), func() bool { return running == 0 }) {
			cl.Shutdown()
			return res, false
		}
		res.VIATime = cl.Now().Sub(start)
		for _, n := range cl.Nodes {
			res.VIARemaps += n.Driver.Remaps()
		}
		cl.Shutdown()
	}
	return res, true
}

func drainCQ(cq *via.CQ) int {
	n := 0
	for {
		c, ok := cq.Poll()
		if !ok {
			return n
		}
		if c.IsRecv && c.Length >= 0 {
			n++
		}
	}
}

// viaRow is the §7 comparison at 10 nodes: the VIA mesh needs 9 VIs per node
// against the NI's 8 frames, virtual networks one endpoint.
func viaRow(w io.Writer, p Params) error {
	header(w, "§7 — VIA per-pair VIs vs pooled endpoints (10 nodes, 5 rounds, 8 NI frames)")
	res, ok := runVIAPressure(viaPressureConfig{Nodes: 10, Rounds: 5, Seed: p.Seed})
	if !ok {
		return errors.New("via pressure run did not complete")
	}
	fmt.Fprintf(w, "%-6s %15s %16s %7s\n", "model", "endpoints/node", "completion (us)", "remaps")
	fmt.Fprintf(w, "%-6s %15d %16.0f %7d\n", "VN", res.VNEndpointsPerNode, res.VNTime.Micros(), res.VNRemaps)
	fmt.Fprintf(w, "%-6s %15d %16.0f %7d\n", "VIA", res.VIAEndpointsPerNode, res.VIATime.Micros(), res.VIARemaps)
	fmt.Fprintf(w, "slowdown: VIA x%.2f (per-pair VIs overcommit the frames; one pooled endpoint fits)\n",
		float64(res.VIATime)/float64(res.VNTime))
	return nil
}
