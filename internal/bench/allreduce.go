package bench

import (
	"errors"
	"fmt"
	"io"

	"virtnet/internal/coll"
	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
)

// Allreduce sweep: one cell = one algorithm reducing one per-rank vector
// size across the full cluster, on a fresh seeded cluster (so cells are
// independent and the whole sweep is deterministic for a seed). The metric
// is virtual completion time of the slowest rank — the collective is done
// when everyone holds the result.

// allreduceNodes is the cluster size of the sweep, and allreduceAlgs its
// columns.
const allreduceNodes = 100

var allreduceAlgs = []coll.Algorithm{coll.Binomial, coll.Ring, coll.RingFlat, coll.Rabenseifner, coll.Hierarchical}

// allreduceVec is rank r's integer-valued input (exact under any reduction
// order, so every algorithm must produce identical bits).
func allreduceVec(r, length int) []float64 {
	v := make([]float64, length)
	for i := range v {
		v[i] = float64((r+1)*(i%577+11)%127 - 50)
	}
	return v
}

// stridePlacement scatters consecutive ranks across the cluster (rank i on
// node 37i mod allreduceNodes; 37 is coprime to it, so every node gets one
// rank). Default rank-order placement is already leaf-sorted on the fat
// tree, which would hide the difference between the topology-aware and flat
// rings; a strided placement is the deployment reality (schedulers hand out
// hosts in no particular order) that the leaf-sorted ring layout has to
// undo.
func stridePlacement() []int {
	const stride = 37
	pl := make([]int, allreduceNodes)
	for i := range pl {
		pl[i] = i * stride % allreduceNodes
	}
	return pl
}

// runAllreduceCell measures one (size, algorithm) cell of the sweep: the
// slowest rank's virtual completion time, and whether every rank finished
// with verified results.
func runAllreduceCell(bytes int, alg coll.Algorithm, seed int64) (sim.Duration, bool) {
	length := bytes / 8
	c := hostos.NewCluster(seed, allreduceNodes, hostos.DefaultClusterConfig())
	defer c.Shutdown()
	w, err := mpi.NewWorld(c, allreduceNodes, stridePlacement())
	if err != nil {
		return 0, false
	}
	// Expected value at a handful of probe indices, for verification.
	probes := []int{0, length / 3, length - 1}
	if length == 0 {
		probes = nil
	}
	want := map[int]float64{}
	for _, i := range probes {
		s := 0.0
		for r := 0; r < allreduceNodes; r++ {
			s += float64((r+1)*(i%577+11)%127 - 50)
		}
		want[i] = s
	}

	var worst sim.Duration
	bad := false
	ok := w.Run(func(p *sim.Proc, cm *mpi.Comm) {
		out, err := cm.AllreduceAlg(p, allreduceVec(cm.Rank(), length), mpi.OpSum, alg)
		if err != nil || len(out) != length {
			bad = true
			return
		}
		for _, i := range probes {
			if out[i] != want[i] {
				bad = true
			}
		}
		if d := sim.Duration(p.Now()); d > worst {
			worst = d
		}
	}, 120*sim.Second)
	return worst, ok && !bad
}

// ---- Data-parallel SGD with gradient-allreduce overlap ----

// The bucketed data-parallel training loop: a model of sgdParams weights
// split into sgdBuckets gradient buckets, trained for sgdIters steps with
// sgdCompute of simulated gradient work per bucket per step, ring allreduce
// of each bucket across sgdNodes ranks.
const (
	sgdNodes   = 16
	sgdParams  = 1 << 18
	sgdBuckets = 8
	sgdIters   = 3
	sgdCompute = 12 * sim.Millisecond // gradient compute per bucket per iteration
)

// runSGDSchedule runs the training loop on a fresh cluster. overlap selects
// the schedule: false serializes compute and communication; true hands
// finished buckets to a per-rank communication thread so the allreduce of
// bucket b rides under the gradient computation of bucket b+1 (and the
// next iteration's early buckets), the way data-parallel training frameworks
// hide gradient exchange behind backprop.
func runSGDSchedule(seed int64, overlap bool) (makespan, comm sim.Duration, ok bool) {
	ccfg := hostos.DefaultClusterConfig()
	// The default 10 ms scheduler quantum would let each gradient compute
	// slice monopolize the CPU, starving the communication thread's
	// per-fragment receive handling — overlap needs an interactive quantum
	// (the progress-engine polling granularity of training runtimes).
	ccfg.OS.Quantum = 200 * sim.Microsecond
	c := hostos.NewCluster(seed, sgdNodes, ccfg)
	defer c.Shutdown()
	w, err := mpi.NewWorld(c, sgdNodes, nil)
	if err != nil {
		return 0, 0, false
	}
	per := (sgdParams + sgdBuckets - 1) / sgdBuckets
	var worst sim.Duration
	bad := false
	ok = w.Run(func(p *sim.Proc, cm *mpi.Comm) {
		// grads[b] is bucket b's local gradient; ready[i*B+b] marks it
		// computed for iteration i, reduced[i*B+b] marks its allreduce done.
		grads := make([][]float64, sgdBuckets)
		for b := range grads {
			lo := b * per
			hi := lo + per
			if hi > sgdParams {
				hi = sgdParams
			}
			grads[b] = allreduceVec(cm.Rank(), hi-lo)
		}
		total := sgdIters * sgdBuckets
		ready := make([]bool, total)
		reduced := make([]bool, total)

		reduceBucket := func(q *sim.Proc, b int) bool {
			out, err := cm.AllreduceAlg(q, grads[b], mpi.OpSum, coll.Ring)
			if err != nil {
				bad = true
				return false
			}
			// Weight update: fold the averaged gradient back into the
			// bucket (keeps values integer-free but deterministic).
			inv := 1.0 / float64(sgdNodes)
			for i := range out {
				grads[b][i] -= 0.01 * out[i] * inv
			}
			return true
		}

		if overlap {
			// Communication thread: reduce buckets strictly in completion
			// order, concurrently with the main thread's compute.
			cm.Node().Spawn("sgd-comm", func(q *sim.Proc) {
				for k := 0; k < total; k++ {
					for !ready[k] {
						q.Sleep(20 * sim.Microsecond)
					}
					if !reduceBucket(q, k%sgdBuckets) {
						return
					}
					reduced[k] = true
				}
			})
			for it := 0; it < sgdIters; it++ {
				for b := 0; b < sgdBuckets; b++ {
					// Computing bucket b of iteration it needs its weights,
					// i.e. the previous iteration's allreduce of b.
					if it > 0 {
						for !reduced[(it-1)*sgdBuckets+b] {
							p.Sleep(20 * sim.Microsecond)
						}
					}
					cm.Node().Compute(p, sgdCompute)
					ready[it*sgdBuckets+b] = true
				}
			}
			for !reduced[total-1] {
				p.Sleep(20 * sim.Microsecond)
			}
		} else {
			for it := 0; it < sgdIters; it++ {
				for b := 0; b < sgdBuckets; b++ {
					cm.Node().Compute(p, sgdCompute)
				}
				for b := 0; b < sgdBuckets; b++ {
					if !reduceBucket(p, b) {
						return
					}
				}
			}
		}
		if d := sim.Duration(p.Now()); d > worst {
			worst = d
		}
		if cm.Rank() == 0 {
			comm = cm.CommTime
		}
	}, 300*sim.Second)
	return worst, comm, ok && !bad
}

// allreduceRow sweeps the collective engine's algorithms over vector sizes
// on the full 100-node cluster (Fig.-style table of virtual completion
// times), then runs the data-parallel SGD loop that shows bucketed gradient
// allreduce hiding behind gradient computation. Large vectors must show the
// bandwidth-optimal schedules (ring, hierarchical) beating the binomial
// reduce+bcast baseline; small vectors show the opposite, which is exactly
// what the size-based selector exploits. Each size line and the SGD block is
// a cell of its own, on fresh clusters built from the seed.
func allreduceRow(w io.Writer, p Params) error {
	allreduceHeader(w)
	for _, bytes := range []int{1 << 10, 32 << 10, 1 << 20, 16 << 20} {
		if err := allreduceSizeLine(w, bytes, p.Seed); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "results verified elementwise on every rank: true\n")
	fmt.Fprintf(w, "selector: n<=2 or <=4 KB binomial, <=256 KB rabenseifner, above ring (leaf-ordered)\n")
	return allreduceSGD(w, p.Seed)
}

// allreduceHeader prints the sweep's title and column header.
func allreduceHeader(w io.Writer) {
	header(w, fmt.Sprintf("allreduce — collective algorithm sweep (%d nodes)", allreduceNodes))
	fmt.Fprintf(w, "virtual completion time (ms) by per-rank vector size:\n")
	fmt.Fprintf(w, "%10s", "bytes")
	for _, a := range allreduceAlgs {
		fmt.Fprintf(w, " %12s", a)
	}
	fmt.Fprintf(w, " %12s %8s\n", "auto", "best")
}

// allreduceSizeLine prints the sweep's line for one per-rank vector size:
// every algorithm's completion time, the selector's and the best. A cell
// whose results fail elementwise verification is an error.
func allreduceSizeLine(w io.Writer, bytes int, seed int64) error {
	line := fmt.Sprintf("%10d", bytes)
	best, bestAlg := 0.0, coll.Auto
	// Auto runs the algorithm Select names, so its cell is one of these.
	sel, auto := coll.Select(allreduceNodes, bytes), 0.0
	for _, a := range allreduceAlgs {
		t, ok := runAllreduceCell(bytes, a, seed)
		if !ok {
			return fmt.Errorf("%s allreduce of %d bytes: results not verified on every rank", a, bytes)
		}
		ms := t.Micros() / 1000
		line += fmt.Sprintf(" %12.3f", ms)
		if bestAlg == coll.Auto || ms < best {
			best, bestAlg = ms, a
		}
		if a == sel {
			auto = ms
		}
	}
	fmt.Fprintf(w, "%s %12.3f %8s\n", line, auto, bestAlg)
	return nil
}

// allreduceSGD prints the SGD block: both schedules of the bucketed
// training loop and how much the overlap saves.
func allreduceSGD(w io.Writer, seed int64) error {
	header(w, "SGD — data-parallel training, gradient allreduce overlap")
	seq, commSeq, okSeq := runSGDSchedule(seed, false)
	ovl, commOvl, okOvl := runSGDSchedule(seed, true)
	if !okSeq || !okOvl {
		return errors.New("sgd run failed")
	}
	fmt.Fprintf(w, "ranks=%d params=%d buckets=%d iters=%d compute=%v/bucket (ring allreduce per bucket)\n",
		sgdNodes, sgdParams, sgdBuckets, sgdIters, sgdCompute)
	fmt.Fprintf(w, "sequential (compute, then reduce):     makespan %v (rank0 comm %v)\n", seq, commSeq)
	fmt.Fprintf(w, "overlapped (reduce behind next bucket): makespan %v (rank0 comm %v)\n", ovl, commOvl)
	saved := float64(seq-ovl) / float64(seq) * 100
	fmt.Fprintf(w, "overlap shortens the step by %.1f%%\n", saved)
	return nil
}
