// Package npb models the NAS Parallel Benchmarks 2.2 workloads of Fig. 5
// and runs them on three machines: the simulated 100-node NOW (where the
// communication phases execute on the real virtual-network stack via the
// mini-MPI), and analytic models of the IBM SP-2 and SGI Origin 2000
// comparators.
//
// Each kernel is reduced to its performance skeleton: per-iteration flop
// count, dominant communication pattern (all-to-all for FT and IS,
// near-neighbor for BT/SP/MG/CG, a latency-bound pipeline for LU), data
// volume, and a cache term — the paper observes that shrinking per-node
// working sets improve cache behaviour enough to compensate for added
// communication, even more so on the Origin. Problem sizes are scaled down
// from Class A with the compute:communication ratio preserved; Fig. 5 plots
// speedups, which are insensitive to the absolute scale.
package npb

import (
	"math"

	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
)

// CommPattern is a kernel's dominant communication structure.
type CommPattern int

const (
	// PatNone: embarrassingly parallel (EP).
	PatNone CommPattern = iota
	// PatAlltoall: transpose/exchange across all pairs (FT, IS).
	PatAlltoall
	// PatNeighbor: nearest-neighbor face exchanges (BT, SP, MG, CG).
	PatNeighbor
	// PatPipeline: many small latency-bound neighbor messages (LU).
	PatPipeline
)

// Kernel is one benchmark's performance skeleton.
type Kernel struct {
	Name string
	// Iters is the number of bulk-synchronous iterations.
	Iters int
	// Flops is the total computation per iteration at any P.
	Flops float64
	// Pattern and Bytes describe the per-iteration communication: Bytes is
	// the total volume moved across all ranks per iteration.
	Pattern CommPattern
	Bytes   float64
	// SmallMsgs is the count of small latency-bound messages per rank per
	// iteration (pipeline kernels).
	SmallMsgs int
	// Reduce marks a per-iteration global reduction.
	Reduce bool
	// CacheBoost is the asymptotic compute-rate improvement from shrinking
	// per-node working sets as P grows.
	CacheBoost float64
}

// Kernels returns the scaled NPB 2.2 Class A models.
func Kernels() []Kernel {
	return []Kernel{
		{Name: "EP", Iters: 1, Flops: 1.2e9, Pattern: PatNone, Reduce: true, CacheBoost: 0},
		{Name: "IS", Iters: 10, Flops: 0.10e9, Pattern: PatAlltoall, Bytes: 16.0e6, Reduce: true, CacheBoost: 0.05},
		{Name: "FT", Iters: 6, Flops: 0.80e9, Pattern: PatAlltoall, Bytes: 40.0e6, CacheBoost: 0.14},
		{Name: "MG", Iters: 20, Flops: 0.18e9, Pattern: PatNeighbor, Bytes: 1.5e6, Reduce: true, CacheBoost: 0.16},
		{Name: "CG", Iters: 75, Flops: 0.06e9, Pattern: PatNeighbor, Bytes: 0.5e6, Reduce: true, CacheBoost: 0.18},
		{Name: "LU", Iters: 120, Flops: 0.10e9, Pattern: PatPipeline, Bytes: 0.2e6, SmallMsgs: 12, CacheBoost: 0.20},
		{Name: "BT", Iters: 60, Flops: 0.30e9, Pattern: PatNeighbor, Bytes: 1.2e6, CacheBoost: 0.18},
		{Name: "SP", Iters: 60, Flops: 0.20e9, Pattern: PatNeighbor, Bytes: 1.4e6, CacheBoost: 0.16},
	}
}

// cacheFactor is the compute-rate multiplier at P processes.
func cacheFactor(boost, scale float64, p int) float64 {
	return 1 + boost*scale*(1-math.Pow(float64(p), -2.0/3.0))
}

// Machine executes a kernel at a process count and returns execution time.
type Machine interface {
	Name() string
	Time(k Kernel, procs int) (sim.Duration, bool)
}

// Speedup runs the kernel at each P and returns T(1)/T(P).
func Speedup(m Machine, k Kernel, ps []int) ([]float64, bool) {
	t1, ok := m.Time(k, 1)
	if !ok {
		return nil, false
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		tp, ok := m.Time(k, p)
		if !ok {
			return nil, false
		}
		out[i] = float64(t1) / float64(tp)
	}
	return out, true
}

// ---- NOW: the simulated cluster ----

// NOW runs kernels on the full simulated virtual-network stack.
type NOW struct {
	// RateFlops is the per-node sustained compute rate (default 135e6).
	RateFlops float64
	// CacheScale scales kernels' CacheBoost on this machine (default 1).
	CacheScale float64
	Seed       int64
	// CfgMod, when set, adjusts the cluster configuration before each run
	// (used by the LogP sensitivity experiment to inflate o or g).
	CfgMod func(*hostos.ClusterConfig)
}

// NewNOW returns the calibrated NOW machine.
func NewNOW(seed int64) *NOW {
	return &NOW{RateFlops: 135e6, CacheScale: 1.0, Seed: seed}
}

func (m *NOW) Name() string { return "NOW" }

// Time builds a fresh cluster of procs nodes and runs the kernel skeleton
// end-to-end on the simulated stack.
func (m *NOW) Time(k Kernel, procs int) (sim.Duration, bool) {
	ccfg := hostos.DefaultClusterConfig()
	if m.CfgMod != nil {
		m.CfgMod(&ccfg)
	}
	cl := hostos.NewCluster(m.Seed+int64(procs), procs, ccfg)
	defer cl.Shutdown()
	w, err := mpi.NewWorld(cl, procs, nil)
	if err != nil {
		return 0, false
	}
	start := cl.Now()
	ok := w.Run(func(p *sim.Proc, c *mpi.Comm) { m.body(p, c, k) }, 100000*sim.Second)
	if !ok {
		return 0, false
	}
	return cl.Now().Sub(start), true
}

func (m *NOW) body(p *sim.Proc, c *mpi.Comm, k Kernel) {
	procs := c.Size()
	f := cacheFactor(k.CacheBoost, m.CacheScale, procs)
	compute := sim.Duration(k.Flops / float64(procs) / (m.RateFlops * f) * 1e9)
	right := (c.Rank() + 1) % procs
	left := (c.Rank() - 1 + procs) % procs
	for it := 0; it < k.Iters; it++ {
		c.Node().Compute(p, compute)
		if procs > 1 {
			switch k.Pattern {
			case PatAlltoall:
				per := int(k.Bytes / float64(procs) / float64(procs))
				if per < 1 {
					per = 1
				}
				bufs := make([][]byte, procs)
				for j := range bufs {
					bufs[j] = make([]byte, per)
				}
				if _, err := c.Alltoall(p, bufs); err != nil {
					return
				}
			case PatNeighbor:
				per := int(k.Bytes / float64(procs))
				buf := make([]byte, per)
				if err := c.SendRecv(p, right, 100+it%2, buf, left, 100+it%2); err != nil {
					return
				}
			case PatPipeline:
				per := int(k.Bytes / float64(procs) / float64(k.SmallMsgs))
				buf := make([]byte, per)
				for j := 0; j < k.SmallMsgs; j++ {
					if err := c.SendRecv(p, right, 200+j, buf, left, 200+j); err != nil {
						return
					}
				}
			}
			if k.Reduce {
				if _, err := c.Allreduce(p, []float64{1}, mpi.OpSum); err != nil {
					return
				}
			}
		}
	}
	if procs > 1 {
		c.Barrier(p)
	}
}

// ---- Analytic comparators ----

// Analytic is a closed-form machine model: per-process compute at a
// sustained rate with the machine's cache scaling, plus an alpha-beta
// communication model with a bisection-bandwidth cap for all-to-all.
type Analytic struct {
	MName      string
	RateFlops  float64
	Alpha      sim.Duration // per-message software + network latency
	LinkBW     float64      // per-node link bandwidth, bytes/s
	BisPerNode float64      // bisection bandwidth per node, bytes/s
	CacheScale float64
}

// SP2 returns the IBM SP-2 model: fast nodes for their day but a
// high-latency, high-overhead message layer, which is what limits its
// scaling in Fig. 5.
func SP2() *Analytic {
	return &Analytic{
		MName:      "SP-2",
		RateFlops:  110e6,
		Alpha:      sim.Duration(45 * 1000),
		LinkBW:     34e6,
		BisPerNode: 25e6,
		CacheScale: 0.0,
	}
}

// Origin2000 returns the SGI Origin 2000 model: much faster processors and
// interconnect (the paper's times are at most 2x ours), with cache effects
// even more pronounced.
func Origin2000() *Analytic {
	return &Analytic{
		MName:      "Origin2000",
		RateFlops:  280e6,
		Alpha:      sim.Duration(12 * 1000),
		LinkBW:     160e6,
		BisPerNode: 90e6,
		CacheScale: 1.5,
	}
}

func (m *Analytic) Name() string { return m.MName }

// Time evaluates the closed-form model.
func (m *Analytic) Time(k Kernel, procs int) (sim.Duration, bool) {
	f := cacheFactor(k.CacheBoost, m.CacheScale, procs)
	compute := k.Flops / float64(procs) / (m.RateFlops * f) // seconds
	comm := 0.0
	if procs > 1 {
		alpha := float64(m.Alpha) / 1e9
		switch k.Pattern {
		case PatAlltoall:
			perRank := k.Bytes / float64(procs)
			linkT := float64(procs-1)*alpha + perRank/m.LinkBW
			bisT := (k.Bytes / 2) / (m.BisPerNode * float64(procs))
			comm = math.Max(linkT, bisT)
		case PatNeighbor:
			comm = alpha + (k.Bytes/float64(procs))/m.LinkBW
		case PatPipeline:
			comm = float64(k.SmallMsgs) * (alpha + (k.Bytes/float64(procs)/float64(k.SmallMsgs))/m.LinkBW)
		}
		if k.Reduce {
			comm += math.Log2(float64(procs)) * alpha
		}
	}
	total := float64(k.Iters) * (compute + comm)
	return sim.Duration(total * 1e9), true
}
