package graph

import (
	"sort"

	"cosched/internal/job"
)

// LevelStats summarises one fully-enumerated level of the co-scheduling
// graph: the multiset of node weights in ascending order. The h(v)
// strategies of §III-D and the MER analysis of §IV consume these.
type LevelStats struct {
	Leader job.ProcID
	// SortedWeights holds every node weight of the level, ascending.
	SortedWeights []float64
}

// Min returns the smallest node weight in the level.
func (ls *LevelStats) Min() float64 {
	if len(ls.SortedWeights) == 0 {
		return 0
	}
	return ls.SortedWeights[0]
}

// enumLimit returns the effective per-level enumeration budget.
func (g *Graph) enumLimit() int64 {
	if g.EnumLimit > 0 {
		return int64(g.EnumLimit)
	}
	return DefaultEnumLimit
}

// LevelEnumerable reports whether the level led by the given process is
// small enough to enumerate exactly under the graph's budget.
func (g *Graph) LevelEnumerable(leader job.ProcID) bool {
	return Binomial(g.N()-int(leader), g.U()-1) <= g.enumLimit()
}

// fullLevelAvail returns all processes with IDs greater than leader: the
// co-member pool of the *static* level, independent of any path.
func (g *Graph) fullLevelAvail(leader job.ProcID) []job.ProcID {
	n := g.N()
	avail := make([]job.ProcID, 0, n-int(leader))
	for p := int(leader) + 1; p <= n; p++ {
		avail = append(avail, job.ProcID(p))
	}
	return avail
}

// LevelStats enumerates the level led by the given process and returns
// its weight statistics. ok is false when the level exceeds the
// enumeration budget; callers must then fall back to bounds. Every call
// enumerates afresh: a caller that reads a level more than once keeps
// the result.
func (g *Graph) LevelStats(leader job.ProcID) (ls *LevelStats, ok bool) {
	if !g.LevelEnumerable(leader) {
		return nil, false
	}
	var weights []float64
	g.ForEachNode(leader, g.fullLevelAvail(leader), func(node []job.ProcID) bool {
		weights = append(weights, g.Cost.NodeWeight(node))
		return true
	})
	sort.Float64s(weights)
	return &LevelStats{Leader: leader, SortedWeights: weights}, true
}

// EffectiveRank computes the §IV effective rank of a node of the shortest
// path: the number of *valid* nodes (nodes sharing no process with the
// used set) whose weight is strictly smaller than the node's own, plus
// one. used must not contain the node's own members. ok is false when the
// node's level is not enumerable.
func (g *Graph) EffectiveRank(node []job.ProcID, used func(job.ProcID) bool) (rank int, ok bool) {
	leader := node[0]
	if !g.LevelEnumerable(leader) {
		return 0, false
	}
	w := g.Cost.NodeWeight(node)
	rank = 1
	g.ForEachNode(leader, g.fullLevelAvail(leader), func(cand []job.ProcID) bool {
		cw := g.Cost.NodeWeight(cand)
		if cw >= w {
			return true
		}
		for _, p := range cand[1:] {
			if used(p) {
				return true
			}
		}
		rank++
		return true
	})
	return rank, true
}

// CanonicalPath sorts each group ascending and orders the groups by their
// leaders, turning an arbitrary partition into valid-path order (in a
// complete partition, ordering by smallest member makes every leader the
// smallest process not used by earlier nodes).
func CanonicalPath(groups [][]job.ProcID) [][]job.ProcID {
	out := make([][]job.ProcID, len(groups))
	for i, grp := range groups {
		out[i] = job.SortedProcIDs(grp)
	}
	sort.Slice(out, func(i, k int) bool { return out[i][0] < out[k][0] })
	return out
}

// PathMER returns the Maximum Effective Rank over the nodes of a complete
// valid path (§IV): for each node, its effective rank within its level
// given the processes consumed by the preceding nodes; the maximum of
// those ranks. The partition is canonicalised into valid-path order
// first. ok is false if any level is not enumerable.
func (g *Graph) PathMER(groups [][]job.ProcID) (mer int, ok bool) {
	groups = CanonicalPath(groups)
	used := make(map[job.ProcID]bool, g.N())
	for _, node := range groups {
		rank, ok := g.EffectiveRank(node, func(p job.ProcID) bool { return used[p] })
		if !ok {
			return 0, false
		}
		if rank > mer {
			mer = rank
		}
		for _, p := range node {
			used[p] = true
		}
	}
	return mer, true
}
