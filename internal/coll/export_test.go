package coll

import "virtnet/internal/sim"

// RingReduceScatter runs the ring allreduce's reduce-scatter pass on a copy
// of vec over the leaf-ordered ring and returns this rank's block, which the
// pass must leave fully reduced.
func RingReduceScatter(p *sim.Proc, t Transport, vec []float64, op Op) ([]float64, error) {
	res := append([]float64(nil), vec...)
	if err := ringReduceScatter(p, t, res, op, ringOrder(t, true)); err != nil {
		return nil, err
	}
	lo, hi := blockBounds(t.Rank(), t.Size(), len(vec))
	return res[lo:hi], nil
}
