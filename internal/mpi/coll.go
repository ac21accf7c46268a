package mpi

import (
	"errors"
	"fmt"
	"sort"

	"virtnet/internal/coll"
	"virtnet/internal/sim"
)

// ErrUnreachable reports that a peer rank became permanently unreachable
// (its node crashed, or its endpoint disappeared) and an operation that
// depended on it was aborted. Collectives surface it on every surviving
// rank instead of hanging — the paper's §3.2 return-to-sender path, carried
// through the message-passing layer as a typed error.
var ErrUnreachable = errors.New("mpi: rank unreachable")

// maxReissues bounds how many times a fragment returned with the transport's
// "retry schedule exhausted" verdict is re-sent before the destination rank
// is declared dead. Each re-issue already rides the NI's full retransmission
// schedule, so this spans transient link flaps without retrying forever.
const maxReissues = 3

// markDead records rank r as permanently unreachable. The world's dead set
// is shared by every rank in the simulation, so one rank's discovery (it is
// the crashed rank's ring neighbor, say) aborts every rank's collective on
// its next poll — bounded time, no hang, even for ranks that never address
// the dead peer directly.
func (w *World) markDead(r int) {
	if w.dead == nil {
		w.dead = make(map[int]bool)
	}
	w.dead[r] = true
}

// DeadRanks returns the ranks declared unreachable, sorted.
func (w *World) DeadRanks() []int {
	out := make([]int, 0, len(w.dead))
	for r := range w.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// deadErr builds the typed abort error naming the dead ranks.
func (c *Comm) deadErr() error {
	return fmt.Errorf("mpi: collective aborted, dead ranks %v: %w", c.w.DeadRanks(), ErrUnreachable)
}

// beginColl/endColl bracket a delegated collective: while inside one, a dead
// peer anywhere in the world aborts this rank's blocking waits (both the
// message-level Recv loop and core's credit/send-queue waits, via the
// endpoint's wait-abort hook).
func (c *Comm) beginColl() { c.inColl++ }
func (c *Comm) endColl()   { c.inColl-- }

// LeafOfRank reports the leaf-switch index of the node hosting rank r —
// netsim's locality API surfaced per rank, which is what lets the collective
// engine lay rings out leaf-by-leaf.
func (c *Comm) LeafOfRank(r int) int {
	return c.w.Cluster.ShardNet(0).LeafOf(c.w.comms[r].node.ID)
}

// Statically assert Comm satisfies the collective engine's contract.
var _ coll.Transport = (*Comm)(nil)

// AllreduceAlg is Allreduce with an explicit algorithm choice (coll.Auto
// picks by message size and cluster size).
func (c *Comm) AllreduceAlg(p *sim.Proc, vec []float64, op func(a, b float64) float64, alg coll.Algorithm) ([]float64, error) {
	c.beginColl()
	defer c.endColl()
	return coll.Allreduce(p, c, vec, coll.Op(op), alg)
}
