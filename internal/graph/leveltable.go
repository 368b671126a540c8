package graph

import (
	"encoding/binary"
	"math"

	"cosched/internal/job"
)

// LevelTableMax is the most nodes, C(n, u), a graph may hold for
// NewLevelTable to build its table: the bound of degradation.Cost's node
// memo, so the table never holds more nodes than the memo could.
const LevelTableMax = 1 << 17

// LevelTable holds every node of a small co-scheduling graph, computed
// once per solve: each node's members' costs (§III-A) and, with
// condensation, its condensation class (§III-E). A search that walks
// whole levels reads a candidate by index instead of building, hashing
// and looking up keys, and the pass that fills the table also yields each
// process's exact cost floor (§III-D). A LevelTable is read-only once
// built, so concurrent searches may share one.
//
// Levels are laid out leader by leader. The node {L} ∪ S of level L sits
// at Start(L) + rank(S), where rank is S's colexicographic rank among the
// (u-1)-subsets of the processes above L: with S = {s_1 < … < s_{u-1}},
//
//	rank(S) = C(s_1-L-1, 1) + C(s_2-L-1, 2) + … + C(s_{u-1}-L-1, u-1),
//
// so a walker adds Term(L, s_j, j) as it places each member.
type LevelTable struct {
	u     int
	start []int     // start[L-1]: index of level L's first node; start[n-u+1] is the node count
	binom []int     // binom[a*u+j] = C(a, j), a < n, j < u
	costs []float64 // node i's members' costs at costs[i*u:], in node order
	// class[i] is node i's condensation class, numbered densely per level
	// in ForEachNode's order; nil when the table was built without
	// condensation.
	class   []int32
	classes int       // the most classes in any level
	floor   []float64 // floor[p-1]: p's least cost over every node holding it
}

// levelTablePoll is the node interval between NewLevelTable's polls of
// its done channel.
const levelTablePoll = 1024

// NewLevelTable builds the table of g, or returns nil when g holds no
// node, more than LevelTableMax, or a level beyond its enumeration budget
// (LevelEnumerable), where callers fall back to bounds. With condense it
// also numbers each level's condensation classes (AppendCondenseKey). It
// polls done (nil: never) every levelTablePoll nodes and returns nil once
// it is closed, so a caller's deadline also bounds the build.
//
// Costs are exactly Cost.NodeCosts' answers for the sorted nodes, computed
// once each without passing through the node memo (Cost.SortedNodeCosts):
// the table is their only copy.
func NewLevelTable(g *Graph, condense bool, done <-chan struct{}) *LevelTable {
	n, u := g.N(), g.U()
	total := Binomial(n, u)
	if total == 0 || total > LevelTableMax || !g.LevelEnumerable(1) {
		return nil
	}
	t := &LevelTable{
		u:     u,
		start: make([]int, n-u+2),
		binom: make([]int, n*u),
		costs: make([]float64, int(total)*u),
		floor: make([]float64, n),
	}
	for a := 0; a < n; a++ {
		for j := 0; j < u; j++ {
			t.binom[a*u+j] = int(Binomial(a, j))
		}
	}
	for l := 1; l <= n-u+1; l++ {
		t.start[l] = t.start[l-1] + int(Binomial(n-l, u-1))
	}
	for i := range t.floor {
		t.floor[i] = math.Inf(1)
	}
	var ids map[string]int32
	var key []uint64
	var keyBytes []byte
	if condense {
		t.class = make([]int32, total)
		ids = make(map[string]int32)
		key = make([]uint64, 0, u)
		keyBytes = make([]byte, 0, 8*u)
	}
	visited, stopped := 0, false
	for l := 1; l <= n-u+1 && !stopped; l++ {
		leader := job.ProcID(l)
		clear(ids)
		g.ForEachNode(leader, g.fullLevelAvail(leader), func(node []job.ProcID) bool {
			if visited++; visited%levelTablePoll == 0 && isDone(done) {
				stopped = true
				return false
			}
			id := t.Start(leader)
			for j, p := range node[1:] {
				id += t.Term(leader, p, j+1)
			}
			// The slice has room for the node's u costs, so the append
			// writes them in place.
			costs := g.Cost.SortedNodeCosts(t.costs[id*u:id*u], node)
			for i, p := range node {
				t.floor[p-1] = min(t.floor[p-1], costs[i])
			}
			if condense {
				key = g.AppendCondenseKey(key[:0], node)
				keyBytes = keyBytes[:0]
				for _, w := range key {
					keyBytes = binary.LittleEndian.AppendUint64(keyBytes, w)
				}
				c, ok := ids[string(keyBytes)]
				if !ok {
					c = int32(len(ids))
					ids[string(keyBytes)] = c
				}
				t.class[id] = c
			}
			return true
		})
		t.classes = max(t.classes, len(ids))
	}
	if stopped {
		return nil
	}
	return t
}

// isDone reports whether done (nil: never) is closed.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Start returns the index of the first node of the level led by leader.
func (t *LevelTable) Start(leader job.ProcID) int { return t.start[leader-1] }

// Term returns the rank contribution of p as the j-th member (1-based)
// above leader: C(p-leader-1, j).
func (t *LevelTable) Term(leader, p job.ProcID, j int) int {
	return t.binom[int(p-leader-1)*t.u+j]
}

// Costs returns node id's members' costs in node order. The slice is the
// table's own storage: read it, never write it.
func (t *LevelTable) Costs(id int) []float64 { return t.costs[id*t.u : id*t.u+t.u] }

// Condensed reports whether the table numbers condensation classes.
func (t *LevelTable) Condensed() bool { return t.class != nil }

// Class returns node id's condensation class, a dense number within its
// level: two nodes of one level share a class exactly when their
// condensation keys are equal.
func (t *LevelTable) Class(id int) int32 { return t.class[id] }

// Classes returns the most classes any level holds: every Class is below
// it.
func (t *LevelTable) Classes() int { return t.classes }

// Floor returns the least cost process p pays in any node of the graph:
// the exact minimum of its cost over every set of u-1 co-runners.
func (t *LevelTable) Floor(p job.ProcID) float64 { return t.floor[p-1] }

// LevelMin returns the least node weight of the level led by leader
// (at most n-u+1, so the level holds a node), each weight summed over the
// node's costs in node order as Cost.NodeWeight sums them.
func (t *LevelTable) LevelMin(leader job.ProcID) float64 {
	lo := math.Inf(1)
	for id := t.start[leader-1]; id < t.start[leader]; id++ {
		var w float64
		for _, d := range t.Costs(id) {
			w += d
		}
		lo = min(lo, w)
	}
	return lo
}
