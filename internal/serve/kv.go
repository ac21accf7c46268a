package serve

import (
	"encoding/binary"
	"math/rand"

	"virtnet/internal/core"
	"virtnet/internal/hostos"
	"virtnet/internal/obs"
	"virtnet/internal/reliab"
	"virtnet/internal/rpc"
	"virtnet/internal/sim"
)

// KV procedure numbers.
const (
	ProcKVGet = 1
	ProcKVPut = 2
)

// Addr names one server endpoint for pool construction.
type Addr struct {
	Name core.EndpointName
	Key  core.Key
}

// KVServerConfig shapes one KV shard server.
type KVServerConfig struct {
	// Service is the compute charged per operation (the app-level work a
	// real store does per request: lookup, serialization).
	Service sim.Duration
	// PerByte adds size-proportional compute on top of Service, so elephant
	// values cost more to serve than mice.
	PerByte sim.Duration
	// PadGets pads get responses to at least this many bytes — the incast
	// scenario's knob for making fanned reads converge as fat responses.
	PadGets int
	// TrackEffects keeps a per-idempotency-key execution ledger so soak
	// harnesses can assert exactly-once effects (a retried put whose
	// duplicate slips past the idem cache would show as a count of 2).
	TrackEffects bool
	// Opts is the reliability configuration of the shard's rpc.Server.
	Opts rpc.Options
}

// KVServer is one shard of the key-value store: an rpc.Server holding a
// private map, charging Service compute per op. Replication is
// client-driven (the workload writes to the key's replica set), so shards
// never talk to each other — each put lands R times, once per replica.
type KVServer struct {
	S    *rpc.Server
	node *hostos.Node
	cfg  KVServerConfig

	store map[uint64][]byte

	// Gets, Puts, Applied count operations executed (Applied counts puts
	// that mutated the store — with idempotency on, a retried duplicate
	// put is answered from the cache and never reaches the handler, so
	// Applied is the exactly-once figure the soak invariants check).
	Gets, Puts, Applied int64

	// Ledger maps idempotency key -> handler executions when TrackEffects
	// is set; every count must stay at 1.
	Ledger map[uint64]int
}

// NewKVServer builds one KV shard on node with the given endpoint key.
func NewKVServer(node *hostos.Node, key core.Key, cfg KVServerConfig) (*KVServer, error) {
	s, err := rpc.NewServerOpts(node, key, cfg.Opts)
	if err != nil {
		return nil, err
	}
	kv := &KVServer{S: s, node: node, cfg: cfg, store: make(map[uint64][]byte)}
	s.Register(ProcKVGet, kv.get)
	if cfg.TrackEffects {
		kv.Ledger = make(map[uint64]int)
		s.RegisterCtx(ProcKVPut, func(p *sim.Proc, ctx reliab.Ctx, args []byte) ([]byte, error) {
			if ctx.IdemKey != 0 {
				kv.Ledger[ctx.IdemKey]++
			}
			return kv.put(p, args)
		})
	} else {
		s.Register(ProcKVPut, kv.put)
	}
	return kv, nil
}

// Addr returns the shard's pool address.
func (kv *KVServer) Addr() Addr { return Addr{Name: kv.S.Name(), Key: kv.S.Key()} }

func (kv *KVServer) get(p *sim.Proc, args []byte) ([]byte, error) {
	kv.Gets++
	k := binary.LittleEndian.Uint64(args)
	v := kv.store[k]
	if len(v) < kv.cfg.PadGets {
		padded := make([]byte, kv.cfg.PadGets)
		copy(padded, v)
		v = padded
	}
	kv.node.Compute(p, kv.cfg.Service+sim.Duration(len(v))*kv.cfg.PerByte)
	return v, nil
}

func (kv *KVServer) put(p *sim.Proc, args []byte) ([]byte, error) {
	kv.node.Compute(p, kv.cfg.Service+sim.Duration(len(args)-8)*kv.cfg.PerByte)
	kv.Puts++
	k := binary.LittleEndian.Uint64(args)
	kv.store[k] = append([]byte(nil), args[8:]...)
	kv.Applied++
	return nil, nil
}

// Serve runs the shard's poll/execute loop until stop returns true.
func (kv *KVServer) Serve(p *sim.Proc, stop func() bool) {
	kv.S.Serve(p, stop)
}

// KVWorkloadConfig shapes the client side of the KV workload.
type KVWorkloadConfig struct {
	Ring     *Ring
	Keys     KeyDist
	PutFrac  float64 // fraction of ops that are puts
	Replicas int     // replica fan-out per put (≥1)
	ValSize  int     // put value size in bytes
	// IdemPuts attaches an idempotency key to every put so retried or
	// duplicated puts apply exactly once (requires IdemCap on servers).
	IdemPuts bool
	// ClientID salts idempotency keys so two clients never collide.
	ClientID uint64
	// FanReads turns gets into scatter-gathers: each read fans to FanReads
	// replica shards and completes only when all respond — the incast
	// pattern, responses converging on the client's access link.
	FanReads int
	// BigEvery mixes elephants into the mice: every BigEvery-th op is a put
	// of BigSize bytes regardless of PutFrac (0 disables).
	BigEvery int
	BigSize  int
}

// KVWorkload issues get/put traffic over one pool spanning all shards.
type KVWorkload struct {
	pooled
	cfg KVWorkloadConfig
	rng *rand.Rand // op-type stream (derived, not engine)
	val []byte
	big []byte
	seq uint64
	ops uint64
	// Per-request scratch: a put's encoded args and the replica set.
	args []byte
	tgts []int
}

// NewKVWorkload builds the client workload on node against the given
// shard servers. rng drives op-type choices and must be a derived stream.
func NewKVWorkload(node *hostos.Node, servers []Addr, cfg KVWorkloadConfig, opts rpc.Options, rng *rand.Rand) (*KVWorkload, error) {
	pl, err := newPooled(node, servers, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	val := make([]byte, cfg.ValSize)
	for i := range val {
		val[i] = byte(i * 31)
	}
	w := &KVWorkload{pooled: pl, cfg: cfg, rng: rng, val: val}
	if cfg.BigEvery > 0 && cfg.BigSize > 0 {
		w.big = make([]byte, cfg.BigSize)
		for i := range w.big {
			w.big[i] = byte(i * 13)
		}
	}
	return w, nil
}

// Issue starts one op: a get to the key's primary (or a FanReads-way
// scatter-gather), or a put fanned out to the key's full replica set
// (counted good only when every replica acks). Every BigEvery-th op is an
// elephant put.
func (w *KVWorkload) Issue(p *sim.Proc, seq uint64, ctx reliab.Ctx) (Req, error) {
	key := w.cfg.Keys.Pick()
	w.ops++
	if w.big != nil && w.ops%uint64(w.cfg.BigEvery) == 0 {
		return w.putReq(p, key, w.big, ctx)
	}
	if w.rng.Float64() >= w.cfg.PutFrac {
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], key)
		if w.cfg.FanReads > 1 {
			w.tgts = w.cfg.Ring.Replicas(key, w.cfg.FanReads, w.tgts)
			m := &multiReq{pcs: make([]rpc.PoolPending, 0, len(w.tgts))}
			for _, tgt := range w.tgts {
				pc, err := w.pool.GoCtx(p, tgt, ProcKVGet, kb[:], ctx)
				if err != nil {
					m.AbandonAll()
					return nil, err
				}
				m.pcs = append(m.pcs, pc)
			}
			return m, nil
		}
		pc, err := w.pool.GoCtx(p, w.cfg.Ring.Primary(key), ProcKVGet, kb[:], ctx)
		if err != nil {
			return nil, err
		}
		return poolReq{pc}, nil
	}
	return w.putReq(p, key, w.val, ctx)
}

// putReq fans one put to the key's replica set.
func (w *KVWorkload) putReq(p *sim.Proc, key uint64, val []byte, ctx reliab.Ctx) (Req, error) {
	if w.cfg.IdemPuts {
		w.seq++
		ctx.IdemKey = splitmix64(w.cfg.ClientID<<32 | w.seq)
	}
	// One scratch buffer serves every put: GoCtx copies args before it
	// returns.
	args := binary.LittleEndian.AppendUint64(w.args[:0], key)
	args = append(args, val...)
	w.args = args
	w.tgts = w.cfg.Ring.Replicas(key, w.cfg.Replicas, w.tgts)
	m := &multiReq{pcs: make([]rpc.PoolPending, 0, len(w.tgts))}
	for _, tgt := range w.tgts {
		pc, err := w.pool.GoCtx(p, tgt, ProcKVPut, args, ctx)
		if err != nil {
			m.AbandonAll()
			return nil, err
		}
		m.pcs = append(m.pcs, pc)
	}
	return m, nil
}

// poolReq adapts one PoolPending to the Req interface.
type poolReq struct{ pc rpc.PoolPending }

func (r poolReq) TryWait(p *sim.Proc) (bool, error) {
	_, done, err := r.pc.TryWait(p)
	return done, err
}

func (r poolReq) Abandon() { r.pc.Abandon() }

// multiReq is a fan-out request: done when every branch finished, failing
// with the first branch error.
type multiReq struct {
	pcs []rpc.PoolPending
	err error
	fl  *obs.Flight // root flight for fan-in attribution (nil = untraced)
	any bool        // a branch has completed: rpc-wait already marked
}

// attach installs the request's root flight so the fan-in window (first
// response to last response) is attributed to StageFanIn on it.
func (m *multiReq) attach(fl *obs.Flight) { m.fl = fl }

func (m *multiReq) TryWait(p *sim.Proc) (bool, error) {
	before := len(m.pcs)
	kept := m.pcs[:0]
	for _, pc := range m.pcs {
		_, done, err := pc.TryWait(p)
		if !done {
			kept = append(kept, pc)
			continue
		}
		if err != nil && m.err == nil {
			m.err = err
		}
	}
	m.pcs = kept
	if m.fl != nil && len(m.pcs) < before {
		// Until the first response lands the request is waiting on the
		// fastest branch (rpc-wait); from there until the slowest branch
		// answers it is converging — the incast fan-in window.
		if !m.any {
			m.any = true
			m.fl.Mark(obs.StageRPCWait, p.Now())
		}
		if len(m.pcs) == 0 {
			m.fl.Mark(obs.StageFanIn, p.Now())
		}
	}
	if len(m.pcs) == 0 {
		return true, m.err
	}
	return false, nil
}

func (m *multiReq) Abandon() { m.AbandonAll() }

func (m *multiReq) AbandonAll() {
	for i := range m.pcs {
		m.pcs[i].Abandon()
	}
	m.pcs = nil
}
