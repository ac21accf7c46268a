package coll_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"virtnet/internal/coll"
	"virtnet/internal/fault"
	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
)

func newWorld(t *testing.T, n int) *mpi.World {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	w, err := mpi.NewWorld(c, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// integer-valued inputs make every reduction order exact, so results must be
// bitwise identical across algorithms.
func testVec(rank, length int) []float64 {
	v := make([]float64, length)
	for i := range v {
		v[i] = float64((rank+1)*(i+3)%97 - 40)
	}
	return v
}

func wantSum(n, length int) []float64 {
	want := make([]float64, length)
	for r := 0; r < n; r++ {
		for i, x := range testVec(r, length) {
			want[i] += x
		}
	}
	return want
}

var allAlgs = []coll.Algorithm{
	coll.Binomial, coll.Ring, coll.RingFlat, coll.Rabenseifner, coll.Hierarchical,
}

// TestAllreduceTable sweeps degenerate and awkward shapes: n=1 (no comms),
// n=2 (self-complementary ring), vector lengths that are zero, shorter than
// the cluster (empty blocks), and not divisible by the cluster size.
func TestAllreduceTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, length := range []int{0, 1, 3, 5, 17, 64} {
			for _, alg := range allAlgs {
				n, length, alg := n, length, alg
				t.Run(fmt.Sprintf("n%d/len%d/%s", n, length, alg), func(t *testing.T) {
					w := newWorld(t, n)
					want := wantSum(n, length)
					got := make([][]float64, n)
					errs := make([]error, n)
					ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
						got[c.Rank()], errs[c.Rank()] = c.AllreduceAlg(p, testVec(c.Rank(), length), mpi.OpSum, alg)
					}, 30*sim.Second)
					if !ok {
						t.Fatal("ranks did not complete")
					}
					for r := 0; r < n; r++ {
						if errs[r] != nil {
							t.Fatalf("rank %d: %v", r, errs[r])
						}
						if len(got[r]) != length {
							t.Fatalf("rank %d: got %d elements, want %d", r, len(got[r]), length)
						}
						for i := range want {
							if got[r][i] != want[i] {
								t.Fatalf("rank %d elem %d: got %v, want %v", r, i, got[r][i], want[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestReduceScatterTable checks the ring allreduce's reduce-scatter pass on
// its own: it must leave each rank's ceil-split block fully reduced,
// including short and empty trailing blocks.
func TestReduceScatterTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, length := range []int{0, 1, 3, 5, 17, 64} {
			n, length := n, length
			t.Run(fmt.Sprintf("n%d/len%d", n, length), func(t *testing.T) {
				w := newWorld(t, n)
				full := wantSum(n, length)
				per := (length + n - 1) / n
				got := make([][]float64, n)
				errs := make([]error, n)
				ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
					got[c.Rank()], errs[c.Rank()] = coll.RingReduceScatter(p, c, testVec(c.Rank(), length), mpi.OpSum)
				}, 30*sim.Second)
				if !ok {
					t.Fatal("ranks did not complete")
				}
				for r := 0; r < n; r++ {
					if errs[r] != nil {
						t.Fatalf("rank %d: %v", r, errs[r])
					}
					lo, hi := r*per, r*per+per
					if lo > length {
						lo = length
					}
					if hi > length {
						hi = length
					}
					if len(got[r]) != hi-lo {
						t.Fatalf("rank %d: block has %d elements, want %d", r, len(got[r]), hi-lo)
					}
					for i := range got[r] {
						if got[r][i] != full[lo+i] {
							t.Fatalf("rank %d elem %d: got %v, want %v", r, i, got[r][i], full[lo+i])
						}
					}
				}
			})
		}
	}
}

// TestAlgorithmsBitwiseIdentical is the equivalence property test: for
// integer-valued inputs (exact under any summation order) every algorithm
// must produce bitwise-identical results on every rank, for sum and max.
func TestAlgorithmsBitwiseIdentical(t *testing.T) {
	const n, length = 13, 500
	for _, op := range []struct {
		name string
		fn   func(a, b float64) float64
	}{{"sum", mpi.OpSum}, {"max", math.Max}} {
		op := op
		t.Run(op.name, func(t *testing.T) {
			var ref [][]uint64 // ref[alg] = rank 0's result bits
			for _, alg := range allAlgs {
				w := newWorld(t, n)
				got := make([][]float64, n)
				ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
					out, err := c.AllreduceAlg(p, testVec(c.Rank(), length), op.fn, alg)
					if err != nil {
						t.Errorf("rank %d %s: %v", c.Rank(), alg, err)
						return
					}
					got[c.Rank()] = out
				}, 60*sim.Second)
				if !ok {
					t.Fatalf("%s: ranks did not complete", alg)
				}
				bits := make([]uint64, length)
				for i, x := range got[0] {
					bits[i] = math.Float64bits(x)
				}
				for r := 1; r < n; r++ {
					for i, x := range got[r] {
						if math.Float64bits(x) != bits[i] {
							t.Fatalf("%s: rank %d differs from rank 0 at elem %d", alg, r, i)
						}
					}
				}
				ref = append(ref, bits)
			}
			for a := 1; a < len(ref); a++ {
				for i := range ref[0] {
					if ref[a][i] != ref[0][i] {
						t.Fatalf("%s and %s disagree at elem %d", allAlgs[a], allAlgs[0], i)
					}
				}
			}
		})
	}
}

// TestBcastBarrier smoke-tests the binomial bcast from a root other than
// rank 0, then the dissemination barrier.
func TestBcastBarrier(t *testing.T) {
	const n = 7
	w := newWorld(t, n)
	ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
		got, err := coll.Bcast(p, c, 2, []byte("payload"))
		if err != nil || string(got) != "payload" {
			t.Errorf("rank %d bcast: %q, %v", c.Rank(), got, err)
		}
		if err := coll.Barrier(p, c); err != nil {
			t.Errorf("rank %d barrier: %v", c.Rank(), err)
		}
	}, 30*sim.Second)
	if !ok {
		t.Fatal("ranks did not complete")
	}
}

// TestSelectHeuristic pins the size/cluster crossover points.
func TestSelectHeuristic(t *testing.T) {
	cases := []struct {
		n, bytes int
		want     coll.Algorithm
	}{
		{2, 1 << 20, coll.Binomial},        // tiny cluster: tree always
		{100, 1024, coll.Binomial},         // small message: latency bound
		{100, 64 << 10, coll.Rabenseifner}, // medium: log-step schedule
		{100, 1 << 20, coll.Ring},          // large: bandwidth bound
	}
	for _, tc := range cases {
		if got := coll.Select(tc.n, tc.bytes); got != tc.want {
			t.Errorf("Select(%d, %d) = %v, want %v", tc.n, tc.bytes, got, tc.want)
		}
	}
}

// TestAutoRunsTheSelectedAlgorithm: Auto is a name for whichever algorithm
// Select picks, not a schedule of its own, so it completes at the same
// virtual instant. vnbench allreduce prints the selected column's time in
// its auto column on the strength of this.
func TestAutoRunsTheSelectedAlgorithm(t *testing.T) {
	const n = 8
	finish := func(bytes int, alg coll.Algorithm) sim.Time {
		w := newWorld(t, n)
		var last sim.Time
		ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
			if _, err := c.AllreduceAlg(p, testVec(c.Rank(), bytes/8), mpi.OpSum, alg); err != nil {
				t.Errorf("rank %d %v: %v", c.Rank(), alg, err)
			}
			last = max(last, p.Now())
		}, 30*sim.Second)
		if !ok {
			t.Fatalf("%v at %d bytes: ranks did not complete", alg, bytes)
		}
		return last
	}
	for _, bytes := range []int{1 << 10, 64 << 10, 512 << 10} {
		sel := coll.Select(n, bytes)
		if auto, want := finish(bytes, coll.Auto), finish(bytes, sel); auto != want {
			t.Errorf("%d bytes: auto finished at %v, %v (selected) at %v", bytes, auto, sel, want)
		}
	}
}

// TestAllreduceFaultAbort is the no-hang guarantee: a 16-rank allreduce
// with a fault.Plan crashing one node mid-operation must surface
// mpi.ErrUnreachable on every surviving rank within bounded virtual time.
// Ring exercises detection through data traffic (the dead rank's left
// neighbor keeps sending at it); Binomial exercises the liveness probes —
// a reduce tree's parent only *receives* from the crashed child, so without
// probing no return-to-sender verdict would ever fire and the tree would
// hang.
func TestAllreduceFaultAbort(t *testing.T) {
	for _, alg := range []coll.Algorithm{coll.Ring, coll.Binomial} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			const n = 16
			c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
			defer c.Shutdown()
			w, err := mpi.NewWorld(c, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := fault.Parse("crash:node9@2ms")
			if err != nil {
				t.Fatal(err)
			}
			pl.Apply(c)

			// A vector big enough that the collective is still in flight
			// at 2 ms.
			const length = 1 << 17 // 1 MB
			errs := make([]error, n)
			done := make([]bool, n)
			w.Launch(func(p *sim.Proc, cm *mpi.Comm) {
				_, errs[cm.Rank()] = cm.AllreduceAlg(p, testVec(cm.Rank(), length), mpi.OpSum, alg)
				done[cm.Rank()] = true
			})
			// The crashed rank's proc is killed and never returns, so drive
			// the engine directly with a hard virtual-time bound instead of
			// World.Run.
			const bound = 5 * sim.Second
			for i := 0; i < int(bound/sim.Millisecond); i++ {
				c.RunFor(sim.Millisecond)
				alive := 0
				for r := 0; r < n; r++ {
					if r != 9 && !done[r] {
						alive++
					}
				}
				if alive == 0 {
					break
				}
			}
			for r := 0; r < n; r++ {
				if r == 9 {
					continue
				}
				if !done[r] {
					t.Fatalf("rank %d still blocked after %v of virtual time (hang)", r, bound)
				}
				if !errors.Is(errs[r], mpi.ErrUnreachable) {
					t.Fatalf("rank %d: err = %v, want ErrUnreachable", r, errs[r])
				}
			}
			if got := w.DeadRanks(); len(got) != 1 || got[0] != 9 {
				t.Fatalf("DeadRanks() = %v, want [9]", got)
			}
		})
	}
}
