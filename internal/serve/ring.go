package serve

import (
	"slices"
	"sort"
)

// Ring is a consistent-hash ring over numbered shard servers: each server
// owns vnodes points on a 64-bit circle, a key maps to the first point at
// or after its hash, and replica sets are the next distinct servers
// clockwise. Placement is a pure function of (server count, vnodes) —
// every client and every shard computes the identical ring with no
// coordination, which both matches real serving practice and keeps the
// simulation deterministic.
type Ring struct {
	points  []ringPoint
	servers int
}

type ringPoint struct {
	hash   uint64
	server int
}

// NewRing builds a ring of servers × vnodes points.
func NewRing(servers, vnodes int) *Ring {
	r := &Ring{servers: servers, points: make([]ringPoint, 0, servers*vnodes)}
	for s := 0; s < servers; s++ {
		for v := 0; v < vnodes; v++ {
			h := splitmix64(uint64(s)<<32 | uint64(v) | 0xABCD<<48)
			r.points = append(r.points, ringPoint{hash: h, server: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].server < r.points[j].server
	})
	return r
}

// HashKey maps a key id onto the circle.
func HashKey(key uint64) uint64 { return splitmix64(key ^ 0x5DEECE66D) }

// Primary returns the server owning key.
func (r *Ring) Primary(key uint64) int {
	return r.points[r.search(HashKey(key))].server
}

// Replicas returns the n distinct servers for key, primary first, walking
// clockwise, appended to out[:0]. n is clamped to the server count.
func (r *Ring) Replicas(key uint64, n int, out []int) []int {
	if n > r.servers {
		n = r.servers
	}
	out = out[:0]
	i := r.search(HashKey(key))
	for len(out) < n {
		if s := r.points[i].server; !slices.Contains(out, s) {
			out = append(out, s)
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// search finds the first point at or after h (wrapping).
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
