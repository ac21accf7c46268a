package serve

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// Parameter-server procedure numbers.
const (
	ProcPSPull = 1
	ProcPSPush = 2
)

// The parameter-server shape. Every shard owns psDim float64 parameters, and
// a pull fetches psPullWindow of them. A request costs psService plus
// psPerValue per element, so big batched pushes cost more than small pulls.
const (
	psDim        = 4096
	psPullWindow = 32
	psService    = 500 * sim.Microsecond
	psPerValue   = 10 * sim.Microsecond
	// PSPullCost is the compute of one pull.
	PSPullCost = psService + psPullWindow*psPerValue
)

// PSServer holds a contiguous block of model parameters. Workers pull
// blocks and push batched gradient updates; pushes accumulate (+=), the
// asynchronous-SGD contract.
type PSServer struct {
	S      *rpc.Server
	node   *hostos.Node
	params []float64
}

// NewPSServer builds one parameter shard on node.
func NewPSServer(node *hostos.Node, key core.Key, opts rpc.Options) (*PSServer, error) {
	s, err := rpc.NewServerOpts(node, key, opts)
	if err != nil {
		return nil, err
	}
	ps := &PSServer{S: s, node: node, params: make([]float64, psDim)}
	s.Register(ProcPSPull, ps.pull)
	s.Register(ProcPSPush, ps.push)
	return ps, nil
}

// Addr returns the shard's pool address.
func (ps *PSServer) Addr() Addr { return Addr{Name: ps.S.Name(), Key: ps.S.Key()} }

// Serve runs the shard's poll/execute loop until stop returns true.
func (ps *PSServer) Serve(p *sim.Proc, stop func() bool) { ps.S.Serve(p, stop) }

// pull returns count params starting at start: args = start,count uint32.
func (ps *PSServer) pull(p *sim.Proc, args []byte) ([]byte, error) {
	start := int(binary.LittleEndian.Uint32(args[0:4]))
	count := int(binary.LittleEndian.Uint32(args[4:8]))
	if start < 0 || count < 0 || start+count > len(ps.params) {
		return nil, fmt.Errorf("ps: pull [%d,%d) outside dim %d", start, start+count, len(ps.params))
	}
	ps.node.Compute(p, psService+sim.Duration(count)*psPerValue)
	out := make([]byte, count*8)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(int64(ps.params[start+i]*1e6)))
	}
	return out, nil
}

// push applies a batch of (index,delta) updates: args = n×(uint32 idx,
// int32 micro-delta). Deltas are fixed-point micros so the wire stays
// integer and bit-stable.
func (ps *PSServer) push(p *sim.Proc, args []byte) ([]byte, error) {
	n := len(args) / 8
	ps.node.Compute(p, psService+sim.Duration(n)*psPerValue)
	for i := 0; i < n; i++ {
		idx := int(binary.LittleEndian.Uint32(args[i*8 : i*8+4]))
		delta := int32(binary.LittleEndian.Uint32(args[i*8+4 : i*8+8]))
		if idx < len(ps.params) {
			ps.params[idx] += float64(delta) / 1e6
		}
	}
	return nil, nil
}

// PSWorkloadConfig shapes the worker side of the parameter-server
// workload.
type PSWorkloadConfig struct {
	// PushEvery batches: every PushEvery-th arrival flushes the
	// accumulated deltas as one push (1 = push every arrival, unbatched).
	PushEvery int
	// BatchSize is how many deltas each training step contributes.
	BatchSize int
}

// PSWorkload models one training worker: most arrivals pull a parameter
// window from a uniformly chosen shard; every PushEvery-th arrival flushes
// the locally accumulated update batch to the shard it targets. Batching
// is the point — it trades staleness for a PushEvery-fold cut in push
// traffic, and the experiment's offered-load sweep shows where that knee
// sits.
type PSWorkload struct {
	pooled
	cfg     PSWorkloadConfig
	rng     *rand.Rand
	servers int
	pending []byte // accumulated (idx,delta) pairs awaiting flush
	n       uint64 // arrival count for the PushEvery cadence
}

// NewPSWorkload builds one worker on node against the given shards.
func NewPSWorkload(node *hostos.Node, servers []Addr, cfg PSWorkloadConfig, opts rpc.Options, rng *rand.Rand) (*PSWorkload, error) {
	pl, err := newPooled(node, servers, opts)
	if err != nil {
		return nil, err
	}
	if cfg.PushEvery < 1 {
		cfg.PushEvery = 1
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	return &PSWorkload{pooled: pl, cfg: cfg, rng: rng, servers: len(servers)}, nil
}

// Issue models one training step: accumulate this step's deltas, then
// either flush the batch (every PushEvery-th step) or pull fresh params.
func (w *PSWorkload) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error) {
	w.n++
	tgt := w.rng.Intn(w.servers)
	// Accumulate this step's contribution.
	for i := 0; i < w.cfg.BatchSize; i++ {
		var rec [8]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(w.rng.Intn(psDim)))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(int32(w.rng.Intn(2001)-1000)))
		w.pending = append(w.pending, rec[:]...)
	}
	if w.n%uint64(w.cfg.PushEvery) == 0 {
		batch := w.pending
		w.pending = nil
		pc, err := w.pool.GoCtx(p, tgt, ProcPSPush, batch, ctx)
		if err != nil {
			return nil, err
		}
		return poolReq{pc}, nil
	}
	var args [8]byte
	binary.LittleEndian.PutUint32(args[0:4], uint32(w.rng.Intn(psDim-psPullWindow)))
	binary.LittleEndian.PutUint32(args[4:8], psPullWindow)
	pc, err := w.pool.GoCtx(p, tgt, ProcPSPull, args[:], ctx)
	if err != nil {
		return nil, err
	}
	return poolReq{pc}, nil
}
