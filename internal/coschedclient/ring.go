package coschedclient

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// hashRing places each replica at vnodes pseudo-random points on a
// 64-bit ring; a key routes to the replica owning the first point at or
// after the key's hash. Virtual nodes smooth the load split (with a
// single point per replica, one replica can own almost the whole ring),
// and the ring gives every key a deterministic preference order: the
// home replica first, then each further replica in ring order — the
// spillover sequence the client walks when the home is open-circuited.
type hashRing struct {
	points []ringPoint // sorted by hash
	n      int         // replica count
}

// ringPoint is one virtual node: a position and the replica owning it.
type ringPoint struct {
	hash    uint64
	replica int
}

// newRing builds the ring for n replicas with vnodes points each.
func newRing(n, vnodes int) *hashRing {
	r := &hashRing{n: n}
	r.points = make([]ringPoint, 0, n*vnodes)
	for rep := 0; rep < n; rep++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("replica-%d|vnode-%d", rep, v)),
				replica: rep,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// order returns every replica exactly once, in the key's deterministic
// preference order: the home replica (owner of the key's position)
// first, then each subsequent distinct replica walking the ring.
func (r *hashRing) order(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// hash64 is FNV-1a over s with a splitmix64 finalizer — stable across
// processes, which is what keeps a workload's home replica the same
// for every client in the fleet. The finalizer matters: bare FNV-1a
// barely avalanches short keys that differ in one trailing byte, so
// "vnode-1" and "vnode-2" land adjacent on the ring and each replica
// owns a few huge contiguous arcs instead of many small ones.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv cannot fail
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
