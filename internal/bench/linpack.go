package bench

import (
	"errors"
	"fmt"
	"io"
	"math"

	"virtnet/internal/hostos"
	"virtnet/internal/mpi"
	"virtnet/internal/sim"
)

// The §6.2 dedicated-application result: the massively-parallel Linpack run
// that put the 100-node NOW on the Top-500 list at 10.14 GFLOPS. We model
// HPL's right-looking LU on a 2-D block-cyclic process grid (R x C): each
// step the owner column factors the panel in parallel, the panel is
// broadcast along process rows (binomial), row blocks are broadcast along
// columns, and everyone updates its trailing blocks. Compute is charged from
// a per-node DGEMM rate; broadcasts move real bytes through the simulated
// stack. The matrix is scaled down from the Top-500 run to keep its
// compute:communication balance.
const (
	linpackNodes = 100
	linpackN     = 8192 // matrix dimension
	linpackNB    = 64   // block size
	// linpackRate is the per-node DGEMM rate (flop/s). An UltraSPARC-1/167
	// with the Sun Performance Library sustains ~135 Mflop/s.
	linpackRate = 135e6
)

// linpackResult reports the achieved rate.
type linpackResult struct {
	Time       sim.Duration
	GFlops     float64
	Efficiency float64 // fraction of linpackNodes*linpackRate
}

// linpackGrid returns the most square RxC factorization of linpackNodes.
func linpackGrid() (int, int) {
	r := int(math.Sqrt(linpackNodes))
	for linpackNodes%r != 0 {
		r--
	}
	return r, linpackNodes / r
}

// runLinpack executes the blocked-LU model on a fresh cluster.
func runLinpack(seed int64) (linpackResult, bool) {
	cl := hostos.NewCluster(seed+1, linpackNodes, hostos.DefaultClusterConfig())
	defer cl.Shutdown()
	w, err := mpi.NewWorld(cl, linpackNodes, nil)
	if err != nil {
		return linpackResult{}, false
	}
	R, C := linpackGrid()

	start := cl.Now()
	ok := w.Run(func(p *sim.Proc, c *mpi.Comm) {
		nsPerFlop := 1e9 / linpackRate
		me := c.Rank()
		myRow, myCol := me/C, me%C

		// bcastRow distributes data from the rank in column srcCol of this
		// process row to the rest of the row (binomial over C members).
		bcastRow := func(tag int, srcCol int, data []byte) []byte {
			vrank := (myCol - srcCol + C) % C
			mask := 1
			for mask < C {
				if vrank&mask != 0 {
					src := myRow*C + ((vrank-mask+srcCol)%C+C)%C
					got, err := c.Recv(p, src, tag)
					if err != nil {
						return nil
					}
					data = got
					break
				}
				mask <<= 1
			}
			for mask >>= 1; mask > 0; mask >>= 1 {
				if vrank+mask < C {
					dst := myRow*C + (vrank+mask+srcCol)%C
					if err := c.Send(p, dst, tag, data); err != nil {
						return nil
					}
				}
			}
			return data
		}
		// bcastCol distributes from row srcRow within this process column.
		bcastCol := func(tag int, srcRow int, data []byte) []byte {
			vrank := (myRow - srcRow + R) % R
			mask := 1
			for mask < R {
				if vrank&mask != 0 {
					src := (((vrank-mask+srcRow)%R+R)%R)*C + myCol
					got, err := c.Recv(p, src, tag)
					if err != nil {
						return nil
					}
					data = got
					break
				}
				mask <<= 1
			}
			for mask >>= 1; mask > 0; mask >>= 1 {
				if vrank+mask < R {
					dst := ((vrank+mask+srcRow)%R)*C + myCol
					if err := c.Send(p, dst, tag, data); err != nil {
						return nil
					}
				}
			}
			return data
		}

		steps := linpackN / linpackNB
		for k := 0; k < steps; k++ {
			rem := linpackN - k*linpackNB
			ownerCol := k % C
			ownerRow := k % R

			// Panel factorization: the owner column's R ranks factor the
			// rem x NB panel cooperatively (~rem*NB^2 flops split R ways).
			if myCol == ownerCol {
				flops := float64(rem) * float64(linpackNB) * float64(linpackNB) / float64(R)
				c.Node().Compute(p, sim.Duration(flops*nsPerFlop))
			}
			// Panel broadcast along each process row: each row moves its
			// rem/R x NB slice.
			panelBytes := rem / R * linpackNB * 8
			var panel []byte
			if myCol == ownerCol {
				panel = make([]byte, panelBytes)
			}
			if bcastRow(10+k%2, ownerCol, panel) == nil && C > 1 {
				return
			}
			// Row-block broadcast along each process column: NB x rem/C.
			rowBytes := linpackNB * (rem / C) * 8
			var rowBlk []byte
			if myRow == ownerRow {
				rowBlk = make([]byte, rowBytes)
			}
			if bcastCol(20+k%2, ownerRow, rowBlk) == nil && R > 1 {
				return
			}
			// Trailing update: 2*rem^2*NB flops over all P ranks.
			flops := 2 * float64(rem) * float64(rem) * float64(linpackNB) / float64(linpackNodes)
			c.Node().Compute(p, sim.Duration(flops*nsPerFlop))
		}
		c.Barrier(p)
	}, 100000*sim.Second)
	if !ok {
		return linpackResult{}, false
	}
	elapsed := cl.Now().Sub(start)
	total := 2.0 / 3.0 * float64(linpackN) * float64(linpackN) * float64(linpackN)
	gf := total / elapsed.Seconds() / 1e9
	return linpackResult{
		Time:       elapsed,
		GFlops:     gf,
		Efficiency: gf * 1e9 / (float64(linpackNodes) * linpackRate),
	}, true
}

func linpackRow(w io.Writer, p Params) error {
	header(w, "§6.2 — Linpack on the dedicated cluster")
	res, ok := runLinpack(p.Seed)
	if !ok {
		return errors.New("linpack did not complete")
	}
	fmt.Fprintf(w, "nodes=%d n=%d nb=%d: %.2f GFLOPS in %v (%.0f%% of %0.1f GF peak)\n",
		linpackNodes, linpackN, linpackNB, res.GFlops, res.Time,
		res.Efficiency*100, float64(linpackNodes)*linpackRate/1e9)
	fmt.Fprintf(w, "(paper: 10.14 GFLOPS on 100 nodes, Top-500 #315 in June 1997)\n")
	return nil
}
