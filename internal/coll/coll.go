// Package coll is the topology-aware collective communication engine: a
// bandwidth-conscious, pipelined implementation of the collectives that
// dominate the paper's parallel workloads (§6.2 — NPB, Linpack, Split-C),
// layered on any tagged point-to-point transport (internal/mpi's Comm in
// practice).
//
// It exports four operations: Allreduce, which takes an Algorithm, and
// Bcast, Reduce and Barrier, which always run their textbook schedule
// (binomial trees, dissemination rounds). Allreduce has three algorithm
// families beyond the binomial reduce+bcast:
//
//   - Ring: the bandwidth-optimal reduce-scatter + allgather ring. Each rank
//     moves 2·(n-1)/n of the vector regardless of cluster size, with chunked
//     pipelining (≥2 chunks in flight per step) so the wire transfer of one
//     chunk overlaps the reduction of the previous one. The ring is laid out
//     leaf-by-leaf from the transport's placement of ranks, so most ring
//     edges stay under one leaf switch and never cross a spine.
//   - Rabenseifner: recursive-halving reduce-scatter followed by
//     recursive-doubling allgather — the same 2·len bytes as the ring but in
//     2·log2(n) steps instead of 2·(n-1), which wins in the latency/medium
//     size regime. Non-power-of-two cluster sizes fold the remainder ranks
//     into the nearest power of two first.
//   - Hierarchical: a two-level schedule driven by the netsim locality API:
//     reduce leaf-locally onto a per-leaf leader, ring-allreduce across the
//     leaders (each leaf crosses the spines once per ring step), then
//     broadcast back down inside each leaf.
//
// The Auto algorithm picks by message size × cluster size (Select); callers
// override by passing an explicit Algorithm.
//
// Fault semantics: coll itself never retries — the transport is responsible
// for reliable delivery and for surfacing unreachable peers as typed errors
// (internal/mpi marks crashed ranks dead after its bounded re-issue budget
// and aborts collective receives, so a peer crash mid-collective propagates
// to every surviving rank instead of hanging).
package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"virtnet/internal/sim"
)

// Transport is the tagged point-to-point layer a collective runs over.
// Send must be safe to call before the matching Recv is posted (buffered,
// eager semantics) and messages between one (src, dst, tag) pair must not
// overtake each other — exactly internal/mpi's contract. LeafOfRank returns
// the leaf-switch index of the node hosting rank r (netsim's locality API
// surfaced per rank).
type Transport interface {
	Rank() int
	Size() int
	Send(p *sim.Proc, dst, tag int, data []byte) error
	Recv(p *sim.Proc, src, tag int) ([]byte, error)
	LeafOfRank(r int) int
}

// Op combines two elements; it must be associative and commutative (sum,
// max, min). Algorithms reduce in different orders, so exact floating-point
// equality across algorithms holds only for ops and data where the
// reduction is exact (integers, max/min); results are always deterministic
// for a fixed algorithm.
type Op func(a, b float64) float64

// Algorithm selects a collective schedule.
type Algorithm int

const (
	// Auto picks by message size and cluster size (see Select).
	Auto Algorithm = iota
	// Binomial is the latency-optimal tree (reduce+bcast for allreduce) —
	// the baseline the paper-era MPI layer used.
	Binomial
	// Ring is the bandwidth-optimal chunk-pipelined ring, laid out
	// leaf-by-leaf.
	Ring
	// RingFlat is Ring with topology ordering disabled (rank-order ring),
	// kept distinct so experiments can isolate the locality benefit.
	RingFlat
	// Rabenseifner is recursive-halving reduce-scatter + recursive-doubling
	// allgather.
	Rabenseifner
	// Hierarchical is the two-level leaf-local/cross-spine schedule. On
	// ranks that share one leaf switch it is Ring.
	Hierarchical
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Binomial:
		return "binomial"
	case Ring:
		return "ring"
	case RingFlat:
		return "ring-flat"
	case Rabenseifner:
		return "rabenseifner"
	case Hierarchical:
		return "hier"
	}
	return fmt.Sprintf("alg(%d)", int(a))
}

// ChunkBytes is the pipelining granularity of the ring algorithms: each
// ring step's segment is cut into chunks of this many bytes and up to
// PipelineDepth chunks are kept in flight, overlapping the wire time of one
// chunk with the reduction of the previous.
const ChunkBytes = 8192

// PipelineDepth is how many chunks a ring step keeps in flight ahead of the
// reduce pointer.
const PipelineDepth = 2

// Select is the default algorithm heuristic: latency-optimal trees for
// small vectors, Rabenseifner's log-step schedule in the middle, and the
// bandwidth-optimal ring for large vectors. bytes is the per-rank vector
// size in bytes.
func Select(n, bytes int) Algorithm {
	switch {
	case n <= 2:
		return Binomial
	case bytes <= 4096:
		return Binomial
	case bytes <= 256<<10:
		return Rabenseifner
	default:
		return Ring
	}
}

// Tag bases. coll owns the tag space above 1<<21 (internal/mpi's
// collectives stay below 1<<21). Each operation family gets a disjoint
// range wide enough for its step count; concurrent sub-group phases of the
// hierarchical schedule use disjoint bases.
const (
	tagRingRS  = 1<<21 + 0     // ring reduce-scatter steps
	tagRingAG  = 1<<21 + 1<<14 // ring allgather steps
	tagTree    = 1<<21 + 2<<14 // binomial reduce/bcast rounds
	tagRab     = 1<<21 + 3<<14 // rabenseifner rounds
	tagHierUp  = 1<<21 + 4<<14 // hierarchical intra-leaf reduce
	tagHierDn  = 1<<21 + 6<<14 // hierarchical intra-leaf bcast
	tagBarrier = 1<<21 + 7<<14 // dissemination barrier rounds
)

// ---- Public operations ----

// Allreduce combines every rank's vec elementwise with op and returns the
// full result on every rank.
func Allreduce(p *sim.Proc, t Transport, vec []float64, op Op, alg Algorithm) ([]float64, error) {
	n := t.Size()
	if n <= 1 {
		return append([]float64(nil), vec...), nil
	}
	if alg == Auto {
		alg = Select(n, 8*len(vec))
	}
	switch alg {
	case Binomial:
		return treeAllreduce(p, t, vec, op)
	case Ring:
		return ringAllreduce(p, t, vec, op, ringOrder(t, true))
	case RingFlat:
		return ringAllreduce(p, t, vec, op, ringOrder(t, false))
	case Rabenseifner:
		return rabAllreduce(p, t, vec, op)
	case Hierarchical:
		return hierAllreduce(p, t, vec, op)
	}
	return nil, fmt.Errorf("coll: allreduce: bad algorithm %v", alg)
}

// Bcast distributes root's buffer to every rank over a binomial tree.
func Bcast(p *sim.Proc, t Transport, root int, data []byte) ([]byte, error) {
	if t.Size() <= 1 {
		return append([]byte(nil), data...), nil
	}
	return treeBcast(p, t, root, data, tagTree)
}

// Reduce combines every rank's vec elementwise with op onto root over a
// binomial tree. Non-root ranks return nil.
func Reduce(p *sim.Proc, t Transport, root int, vec []float64, op Op) ([]float64, error) {
	return treeReduce(p, t, root, vec, op, tagTree)
}

// Barrier synchronizes all ranks (dissemination, ceil(log2 n) rounds).
func Barrier(p *sim.Proc, t Transport) error {
	n := t.Size()
	r := t.Rank()
	round := 0
	for k := 1; k < n; k <<= 1 {
		dst := (r + k) % n
		src := (r - k + n) % n
		if err := t.Send(p, dst, tagBarrier+round, nil); err != nil {
			return err
		}
		if _, err := t.Recv(p, src, tagBarrier+round); err != nil {
			return err
		}
		round++
	}
	return nil
}

// ---- Shared helpers ----

// blockBounds returns the [lo, hi) element range of block i when length
// elements are split into n ceil-sized blocks (trailing blocks clamp to
// short or empty).
func blockBounds(i, n, length int) (lo, hi int) {
	per := (length + n - 1) / n
	lo = i * per
	if lo > length {
		lo = length
	}
	hi = lo + per
	if hi > length {
		hi = length
	}
	return lo, hi
}

// spansLeaves reports whether the ranks occupy more than one leaf switch.
func spansLeaves(t Transport) bool {
	first := t.LeafOfRank(0)
	for r := 1; r < t.Size(); r++ {
		if t.LeafOfRank(r) != first {
			return true
		}
	}
	return false
}

// ringOrder returns the ring layout: a permutation of ranks such that
// consecutive positions are ring neighbors. With useTopo, ranks are ordered
// leaf-by-leaf so all but one ring edge per leaf stay under a single leaf
// switch; otherwise the ring is rank order. Every rank computes the same
// permutation (it depends only on shared placement data).
func ringOrder(t Transport, useTopo bool) []int {
	n := t.Size()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if !useTopo {
		return perm
	}
	sort.SliceStable(perm, func(a, b int) bool {
		la, lb := t.LeafOfRank(perm[a]), t.LeafOfRank(perm[b])
		if la != lb {
			return la < lb
		}
		return perm[a] < perm[b]
	})
	return perm
}

func permIndex(perm []int, rank int) int {
	for i, r := range perm {
		if r == rank {
			return i
		}
	}
	panic("coll: rank not in ring permutation")
}

func encode(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

func decode(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}

// reduceInto folds src into dst elementwise with op.
func reduceInto(dst, src []float64, op Op) {
	for i := range src {
		dst[i] = op(dst[i], src[i])
	}
}

// ---- Binomial tree (the baseline schedule; internal/mpi's Bcast and Reduce
// are these) ----

func log2floor(k int) int {
	l := 0
	for k > 1 {
		k >>= 1
		l++
	}
	return l
}

// treeReduce combines vectors onto root over a binomial tree. Non-root
// ranks return nil.
func treeReduce(p *sim.Proc, t Transport, root int, vec []float64, op Op, tagBase int) ([]float64, error) {
	n := t.Size()
	vrank := (t.Rank() - root + n) % n
	acc := append([]float64(nil), vec...)
	for k := 1; k < n; k <<= 1 {
		if vrank&k != 0 {
			dst := ((vrank - k) + root) % n
			return nil, t.Send(p, dst, tagBase+log2floor(k), encode(acc))
		}
		if vrank+k < n {
			src := (vrank + k + root) % n
			raw, err := t.Recv(p, src, tagBase+log2floor(k))
			if err != nil {
				return nil, err
			}
			reduceInto(acc, decode(raw), op)
		}
	}
	return acc, nil
}

// treeBcast distributes root's buffer over a binomial tree.
func treeBcast(p *sim.Proc, t Transport, root int, data []byte, tagBase int) ([]byte, error) {
	n := t.Size()
	vrank := (t.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % n
			got, err := t.Recv(p, src, tagBase+32)
			if err != nil {
				return nil, err
			}
			data = got
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			if err := t.Send(p, dst, tagBase+32, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

func treeAllreduce(p *sim.Proc, t Transport, vec []float64, op Op) ([]float64, error) {
	acc, err := treeReduce(p, t, 0, vec, op, tagTree)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if t.Rank() == 0 {
		raw = encode(acc)
	}
	raw, err = treeBcast(p, t, 0, raw, tagTree)
	if err != nil {
		return nil, err
	}
	return decode(raw), nil
}
