package coll

import (
	"fmt"
	"sort"

	"virtnet/internal/sim"
)

// Hierarchical two-level schedule, driven by the transport's LeafOfRank: each
// leaf switch's ranks first reduce onto a per-leaf leader (binomial, all
// traffic under one leaf switch), the leaders run a ring allreduce among
// themselves (the only phase that crosses the spines), and finally each
// leader broadcasts the result back down its leaf. A 100-host/20-leaf
// cluster therefore crosses the spine layer with 20 ring participants
// instead of 100 — and the intra-leaf phases of different leaves proceed in
// parallel on disjoint links.

// subTransport restricts a Transport to a subset of ranks, renumbering them
// 0..len(members)-1 (members must be sorted and contain t.Rank()). Tags pass
// through unchanged, so each phase must use a disjoint tag base.
type subTransport struct {
	t       Transport
	members []int
	rank    int // this rank's index within members
}

func newSubTransport(t Transport, members []int) *subTransport {
	st := &subTransport{t: t, members: members, rank: -1}
	for i, m := range members {
		if m == t.Rank() {
			st.rank = i
			break
		}
	}
	if st.rank < 0 {
		panic("coll: subTransport: caller not a member")
	}
	return st
}

func (st *subTransport) Rank() int { return st.rank }
func (st *subTransport) Size() int { return len(st.members) }

func (st *subTransport) Send(p *sim.Proc, dst, tag int, data []byte) error {
	return st.t.Send(p, st.members[dst], tag, data)
}

func (st *subTransport) Recv(p *sim.Proc, src, tag int) ([]byte, error) {
	return st.t.Recv(p, st.members[src], tag)
}

// LeafOfRank passes physical placement through so the leaders' ring is
// itself laid out leaf-by-leaf (a no-op ordering here, since leaders are
// one-per-leaf, but it keeps the sub-ring deterministic and topology-aware).
func (st *subTransport) LeafOfRank(r int) int {
	return st.t.LeafOfRank(st.members[r])
}

// leafGroups partitions ranks by leaf index. Groups (and the ranks inside
// each) are sorted, so every rank derives the identical grouping. The leader
// of each group is its first (lowest) rank.
func leafGroups(t Transport) [][]int {
	byLeaf := map[int][]int{}
	for r := 0; r < t.Size(); r++ {
		l := t.LeafOfRank(r)
		byLeaf[l] = append(byLeaf[l], r)
	}
	leaves := make([]int, 0, len(byLeaf))
	for l := range byLeaf {
		leaves = append(leaves, l)
	}
	sort.Ints(leaves)
	groups := make([][]int, 0, len(leaves))
	for _, l := range leaves {
		g := byLeaf[l]
		sort.Ints(g)
		groups = append(groups, g)
	}
	return groups
}

// ownGroup returns the caller's leaf group and its leaders list.
func ownGroup(t Transport) (group, leaders []int) {
	groups := leafGroups(t)
	leaders = make([]int, len(groups))
	for i, g := range groups {
		leaders[i] = g[0]
		for _, r := range g {
			if r == t.Rank() {
				group = g
			}
		}
	}
	return group, leaders
}

func hierAllreduce(p *sim.Proc, t Transport, vec []float64, op Op) ([]float64, error) {
	if !spansLeaves(t) {
		return ringAllreduce(p, t, vec, op, ringOrder(t, true))
	}
	group, leaders := ownGroup(t)

	// Phase 1: reduce onto the leaf leader (intra-leaf links only).
	leaf := newSubTransport(t, group)
	acc, err := treeReduce(p, leaf, 0, vec, op, tagHierUp)
	if err != nil {
		return nil, fmt.Errorf("coll: hier intra-leaf reduce: %w", err)
	}

	// Phase 2: leaders ring-allreduce across the spines.
	if leaf.Rank() == 0 {
		lt := newSubTransport(t, leaders)
		acc, err = ringAllreduce(p, lt, acc, op, ringOrder(lt, true))
		if err != nil {
			return nil, fmt.Errorf("coll: hier cross-leaf allreduce: %w", err)
		}
	}

	// Phase 3: leaders broadcast back down their leaf.
	var raw []byte
	if leaf.Rank() == 0 {
		raw = encode(acc)
	}
	raw, err = treeBcast(p, leaf, 0, raw, tagHierDn)
	if err != nil {
		return nil, fmt.Errorf("coll: hier intra-leaf bcast: %w", err)
	}
	return decode(raw), nil
}
