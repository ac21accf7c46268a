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

// The §7 comparison: a parallel program on n nodes needs n^2 VIs for full
// connectivity under the Virtual Interface Architecture, where virtual
// networks need a single endpoint per process. Because each VI occupies an
// endpoint frame when active, VI-per-pair provisioning overcommits the NI
// long before endpoint pooling does. At viaNodes nodes the VIA mesh needs 9
// VIs per node against the NI's 8 frames.
const (
	viaNodes  = 10
	viaRounds = 5 // each process messages every peer once per round
)

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
func runVIAPressure(seed int64) (viaPressureResult, bool) {
	res := viaPressureResult{
		VNEndpointsPerNode:  1,
		VIAEndpointsPerNode: viaNodes - 1,
	}

	// ---- Virtual networks: one endpoint per process. ----
	{
		cl := hostos.NewCluster(seed+1, viaNodes, hostos.DefaultClusterConfig())
		eps := make([]*core.Endpoint, viaNodes)
		for i := 0; i < viaNodes; i++ {
			b := core.Attach(cl.Nodes[i])
			eps[i], _ = b.NewEndpoint(core.Key(100+i), viaNodes)
		}
		if err := core.MakeVirtualNetwork(eps); err != nil {
			cl.Shutdown()
			return res, false
		}
		got := make([]int, viaNodes)
		for i := range eps {
			i := i
			eps[i].SetHandler(1, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {
				got[i]++
				tok.Reply(p, 2, a)
			})
			eps[i].SetHandler(2, func(p *sim.Proc, tok *core.Token, a [4]uint64, _ []byte) {})
		}
		running := viaNodes
		start := cl.Now()
		for i := 0; i < viaNodes; i++ {
			i := i
			cl.Nodes[i].Spawn("vn", func(p *sim.Proc) {
				defer func() { running-- }()
				want := viaRounds * (viaNodes - 1)
				for r := 0; r < viaRounds; r++ {
					for j := 0; j < viaNodes; j++ {
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
		cl := hostos.NewCluster(seed+1, viaNodes, hostos.DefaultClusterConfig())
		nics := make([]*via.NIC, viaNodes)
		for i := range nics {
			nics[i] = via.Open(cl.Nodes[i])
		}
		vis, recvCQs, err := via.FullMesh(nics)
		if err != nil {
			cl.Shutdown()
			return res, false
		}
		running := viaNodes
		start := cl.Now()
		for i := 0; i < viaNodes; i++ {
			i := i
			cl.Nodes[i].Spawn("via", func(p *sim.Proc) {
				defer func() { running-- }()
				// Post receives for everything we expect.
				for j := 0; j < viaNodes; j++ {
					if j == i {
						continue
					}
					for r := 0; r < viaRounds; r++ {
						h := nics[i].RegisterMemory(make([]byte, 16))
						vis[i][j].PostRecv(h)
					}
				}
				send := nics[i].RegisterMemory(make([]byte, 16))
				want := viaRounds * (viaNodes - 1)
				seen := 0
				for r := 0; r < viaRounds; r++ {
					for j := 0; j < viaNodes; j++ {
						if j == i {
							continue
						}
						vis[i][j].PostSend(p, send, 16)
					}
					seen += drainCQ(recvCQs[i])
				}
				for seen < want {
					polled := 0
					for j := 0; j < viaNodes; j++ {
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

// viaRow is the §7 comparison: the VIA mesh needs viaNodes-1 VIs per node,
// virtual networks one endpoint.
func viaRow(w io.Writer, p Params) error {
	header(w, fmt.Sprintf("§7 — VIA per-pair VIs vs pooled endpoints (%d nodes, %d rounds, 8 NI frames)", viaNodes, viaRounds))
	res, ok := runVIAPressure(p.Seed)
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
