package coll

import (
	"fmt"

	"virtnet/internal/sim"
)

// Ring allreduce: a reduce-scatter pass (n-1 steps, each moving one
// ~len/n-element segment to the right neighbor) followed by an allgather
// pass (n-1 steps circulating the fully reduced segments). Every rank moves
// 2·(n-1)/n of the vector in total — bandwidth-optimal — and with the
// leaf-sorted ring layout all but one ring edge per leaf stay under a
// single leaf switch.
//
// Ring positions and vector blocks: perm[i] is the rank at ring position i.
// Logical segment ℓ (a position-space index circulated by the schedule)
// maps to vector block perm[(ℓ+n-1) mod n], chosen so that the segment a
// position finishes owning after the reduce-scatter pass is its own rank's
// block.

// segBounds maps logical segment ℓ to its vector block's element range.
func segBounds(perm []int, ell, length int) (lo, hi int) {
	n := len(perm)
	return blockBounds(perm[(ell+n-1)%n], n, length)
}

// ringReduceScatter runs the reduce-scatter pass in place on res. On
// return, rank perm[i]'s own block (block index perm[i]) holds the full
// reduction; other blocks hold partials.
func ringReduceScatter(p *sim.Proc, t Transport, res []float64, op Op, perm []int) error {
	n := t.Size()
	pos := permIndex(perm, t.Rank())
	right := perm[(pos+1)%n]
	left := perm[(pos-1+n)%n]
	for s := 0; s < n-1; s++ {
		sendLo, sendHi := segBounds(perm, (pos-s+n)%n, len(res))
		recvLo, recvHi := segBounds(perm, (pos-s-1+2*n)%n, len(res))
		err := exchangeReduce(p, t, right, left, tagRingRS+s,
			res[sendLo:sendHi], res[recvLo:recvHi], op)
		if err != nil {
			return fmt.Errorf("coll: ring reduce-scatter step %d: %w", s, err)
		}
	}
	return nil
}

// ringAllgather circulates the fully reduced segments so every rank ends
// with the whole vector. res must be the post-reduce-scatter working copy.
func ringAllgather(p *sim.Proc, t Transport, res []float64, perm []int) error {
	n := t.Size()
	pos := permIndex(perm, t.Rank())
	right := perm[(pos+1)%n]
	left := perm[(pos-1+n)%n]
	for s := 0; s < n-1; s++ {
		sendLo, sendHi := segBounds(perm, (pos+1-s+2*n)%n, len(res))
		recvLo, recvHi := segBounds(perm, (pos-s+2*n)%n, len(res))
		if sendHi > sendLo {
			if err := t.Send(p, right, tagRingAG+s, encode(res[sendLo:sendHi])); err != nil {
				return fmt.Errorf("coll: ring allgather step %d: %w", s, err)
			}
		}
		if recvHi > recvLo {
			raw, err := t.Recv(p, left, tagRingAG+s)
			if err != nil {
				return fmt.Errorf("coll: ring allgather step %d: %w", s, err)
			}
			copy(res[recvLo:recvHi], decode(raw))
		}
	}
	return nil
}

func ringAllreduce(p *sim.Proc, t Transport, vec []float64, op Op, perm []int) ([]float64, error) {
	res := append([]float64(nil), vec...)
	if err := ringReduceScatter(p, t, res, op, perm); err != nil {
		return nil, err
	}
	if err := ringAllgather(p, t, res, perm); err != nil {
		return nil, err
	}
	return res, nil
}

// exchangeReduce is one pipelined ring step: send sendBuf to right in
// ChunkBytes chunks while receiving the same-shaped segment from left and
// folding it into recvInto. Up to PipelineDepth chunks are kept in flight
// ahead of the reduce pointer, so the wire transfer of chunk k+1 overlaps
// the decode+reduce of chunk k. All chunks of one step share a tag; the
// transport's per-source FIFO order keeps them matched. Empty segments
// (vector shorter than the cluster) send nothing — both sides of each edge
// compute the same segment bounds, so the chunk counts always agree.
func exchangeReduce(p *sim.Proc, t Transport, right, left, tag int, sendBuf, recvInto []float64, op Op) error {
	chunkElems := ChunkBytes / 8
	ns := (len(sendBuf) + chunkElems - 1) / chunkElems
	nr := (len(recvInto) + chunkElems - 1) / chunkElems
	si, ri := 0, 0
	for si < ns || ri < nr {
		for si < ns && (si-ri < PipelineDepth || ri >= nr) {
			lo := si * chunkElems
			hi := lo + chunkElems
			if hi > len(sendBuf) {
				hi = len(sendBuf)
			}
			if err := t.Send(p, right, tag, encode(sendBuf[lo:hi])); err != nil {
				return err
			}
			si++
		}
		if ri < nr {
			raw, err := t.Recv(p, left, tag)
			if err != nil {
				return err
			}
			lo := ri * chunkElems
			reduceInto(recvInto[lo:], decode(raw), op)
			ri++
		}
	}
	return nil
}
