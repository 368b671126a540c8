package astar

import (
	"container/heap"
	"math"
	"slices"
	"sort"

	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// forEachCandidate produces the candidate nodes for expanding element e at
// the given valid level: all of them for OA*, or the first KPerLevel valid
// nodes in ascending weight order for HA* (§IV). Candidate nodes sharing a
// condensation key are attempted once when condensation is on (§III-E):
// the keys are deduped in the solver's condSeen, reset per expansion.
func (s *Solver) forEachCandidate(e *element, leader job.ProcID, avail []job.ProcID, stats *Stats, fn func(node []job.ProcID)) {
	k := s.opts.KPerLevel
	var seen *wordSet
	if s.opts.Condense && len(s.parJobs) > 0 {
		if s.condSeen == nil {
			s.condSeen = newWordSet(s.u)
			s.condKeyBuf = make([]uint64, 0, s.u)
		}
		seen = s.condSeen
		seen.reset()
	}
	condensed := func(node []job.ProcID) bool {
		if seen == nil || seen.add(s.gr.AppendCondenseKey(s.condKeyBuf[:0], node)) {
			return false
		}
		stats.Condensed++
		return true
	}

	// PE ranks are interchangeable, so with condensation the candidates
	// are enumerated over equivalence classes (one class per PE job,
	// singletons otherwise) instead of raw combinations: the level
	// collapses from C(|avail|, u-1) nodes to a multiset count. This is
	// what makes mixes with large PE jobs (Fig. 6) tractable, especially
	// on 8-core machines.
	if k <= 0 && s.peAll != nil {
		s.forEachClassCandidate(leader, avail, func(node []job.ProcID) bool {
			if !condensed(node) {
				fn(node)
			}
			return true
		})
		return
	}

	if k <= 0 {
		s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
			if !condensed(node) {
				fn(node)
			}
			return true
		})
		return
	}

	if s.pairW != nil && graph.Binomial(len(avail), s.u-1) > smallLevel {
		emitted := 0
		emitFn := func(node []job.ProcID) bool {
			if condensed(node) {
				return true
			}
			fn(node)
			emitted++
			return emitted < k
		}
		if k <= exactLazyMaxK && s.u <= 5 {
			// Exact k-smallest enumeration stays efficient for small
			// budgets and small node cardinalities; its best-first
			// frontier over include/exclude states blows up for large k
			// or deep nodes (u-1 >= 7).
			s.lazyKSmallest(leader, avail, emitFn)
		} else {
			s.anchoredCandidates(leader, avail, k, emitFn)
		}
		return
	}

	// Fallback: enumerate the whole level restricted to avail and attempt
	// its k cheapest nodes. With an additive oracle the weight is a direct
	// pair-cost sum, skipping the node memo. The nodes live flat
	// (u-stride) in solver scratch; a binary min-heap over a permutation
	// of them pops the cheapest until k are emitted, in O(N + k log N)
	// where a whole-level sort costs O(N log N). A level's nodes are
	// distinct, so (weight, lessNodes) is a total order and the pops are
	// exactly the sorted prefix, condensed skips included.
	weight := s.cost.NodeWeight
	if s.pairW != nil {
		weight = func(node []job.ProcID) float64 {
			var w float64
			for i := 1; i < len(node); i++ {
				ri := s.pairW[int(node[i])-1]
				for j := 0; j < i; j++ {
					w += ri[int(node[j])-1]
				}
			}
			return w
		}
	}
	u := s.u
	flat := s.candFlat[:0]
	ws := s.candW[:0]
	s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
		flat = append(flat, node...)
		ws = append(ws, weight(node))
		return true
	})
	s.candFlat, s.candW = flat, ws
	nc := len(ws)
	if cap(s.candIdx) < nc {
		s.candIdx = make([]int32, nc)
	}
	h := candHeap{idx: s.candIdx[:nc], w: ws, flat: flat, u: u}
	h.init()
	for emitted := 0; emitted < k && len(h.idx) > 0; {
		id := int(h.pop())
		node := flat[id*u : id*u+u]
		if condensed(node) {
			continue
		}
		fn(node)
		emitted++
	}
}

// candHeap is a binary min-heap over indices into the fallback's flat
// node store, ordered by (weight, lessNodes).
type candHeap struct {
	idx  []int32
	w    []float64
	flat []job.ProcID
	u    int
}

func (h *candHeap) less(a, b int32) bool {
	if h.w[a] != h.w[b] {
		return h.w[a] < h.w[b]
	}
	u := h.u
	return lessNodes(h.flat[int(a)*u:int(a)*u+u], h.flat[int(b)*u:int(b)*u+u])
}

// init fills idx with the identity permutation and heapifies it.
func (h *candHeap) init() {
	for i := range h.idx {
		h.idx[i] = int32(i)
	}
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *candHeap) down(i int) {
	idx := h.idx
	n := len(idx)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(idx[r], idx[c]) {
			c = r
		}
		if !h.less(idx[c], idx[i]) {
			return
		}
		idx[i], idx[c] = idx[c], idx[i]
		i = c
	}
}

// pop removes and returns the cheapest remaining node's index.
func (h *candHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return top
}

const (
	// smallLevel is the node count below which full enumeration and a
	// heap-select of the k cheapest beat lazy generation.
	smallLevel = 20000
	// exactLazyMaxK is the largest per-level budget for which the exact
	// lazy k-smallest enumerator is used; beyond it the best-first
	// frontier over include/exclude states degenerates (near-tied
	// bounds), so the greedy-anchored generator takes over.
	exactLazyMaxK = 12
)

// anchoredCandidates approximates the k cheapest nodes of a level at
// scale: the j-th candidate anchors the leader to its j-th cheapest
// partner (by pair cost) and completes the node greedily, which yields k
// diverse low-weight nodes in O(k·u·|avail|) — the HA* trimming spirit of
// §IV without the paper's full level sort, which is infeasible at
// C(n-1, u-1) nodes per level (documented in DESIGN.md §3).
//
// Each greedy pick is one pass over the leader-sorted availability:
// acc[p], the pair cost of sorted[p] against the node built so far,
// starts from the leader's row and adds each new member's row in node
// order (the sums a member-by-member total gives, bit for bit), and the
// argmin is taken in the same pass, the first position winning ties. All
// working storage is solver scratch, reused across expansions.
func (s *Solver) anchoredCandidates(leader job.ProcID, avail []job.ProcID, k int, emit func(node []job.ProcID) bool) {
	r := s.u - 1
	m := len(avail)
	if r == 0 {
		emit([]job.ProcID{leader})
		return
	}
	if m < r {
		return
	}
	lrow := s.pairW[int(leader)-1]
	sorted := append(s.anchSorted[:0], avail...)
	s.anchSorted = sorted
	// slices.SortFunc, unlike sort.Slice, allocates nothing.
	slices.SortFunc(sorted, func(a, b job.ProcID) int {
		sa, sb := lrow[int(a)-1], lrow[int(b)-1]
		if sa != sb {
			if sa < sb {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	if cap(s.anchAcc) < m {
		s.anchAcc = make([]float64, m)
		s.anchUsed = make([]bool, m)
	}
	acc, used := s.anchAcc[:m], s.anchUsed[:m]
	if cap(s.anchNode) < s.u {
		s.anchNode = make([]job.ProcID, 0, s.u)
	}
	node := s.anchNode[:0]
	if s.anchSeen == nil {
		s.anchSeen = newWordSet(nodeKeyStride(s.u))
		s.anchKeyBuf = make([]uint64, 0, s.anchSeen.stride)
	}
	seen := s.anchSeen
	seen.reset()
	for j := 0; j < m; j++ {
		node = append(node[:0], leader, sorted[j])
		for p, x := range sorted {
			acc[p] = lrow[int(x)-1]
			used[p] = false
		}
		used[j] = true
		for len(node) < s.u {
			row := s.pairW[int(node[len(node)-1])-1]
			best := -1
			bestInc := math.Inf(1)
			for p, x := range sorted {
				if used[p] {
					continue
				}
				inc := acc[p] + row[int(x)-1]
				acc[p] = inc
				if inc < bestInc {
					bestInc, best = inc, p
				}
			}
			if best < 0 {
				break
			}
			node = append(node, sorted[best])
			used[best] = true
		}
		if len(node) < s.u {
			continue
		}
		sortNode(node)
		if !seen.add(packNodeWords(s.anchKeyBuf[:0], node)) {
			continue
		}
		if !emit(node) {
			return
		}
		if seen.count >= k {
			return
		}
	}
}

// nodeKeyStride is the wordSet stride for nodes of u processes packed 16
// bits each.
func nodeKeyStride(u int) int {
	return (u*2 + 7) / 8
}

// packNodeWords packs a sorted node into dst, 16 bits per process
// (little-endian within each word) — the same information content as the
// former nodeKey string, without the allocation.
func packNodeWords(dst []uint64, node []job.ProcID) []uint64 {
	var w uint64
	for i, p := range node {
		w |= uint64(uint16(p)) << (16 * uint(i&3))
		if i&3 == 3 {
			dst = append(dst, w)
			w = 0
		}
	}
	if len(node)&3 != 0 {
		dst = append(dst, w)
	}
	return dst
}

// lessNodes orders nodes lexicographically for deterministic tie-breaks.
func lessNodes(a, b []job.ProcID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// pairWeights extracts the symmetric pair-cost matrix when the batch is
// all-serial and the oracle is additive-pairwise; nil otherwise. With it,
// node weight == sum of pair costs over the node's unordered pairs, which
// enables lazy k-smallest enumeration without touching the whole level.
func (s *Solver) pairWeights() [][]float64 {
	for i := range s.procPar {
		if s.procPar[i] >= 0 {
			return nil
		}
	}
	pw, ok := s.cost.Oracle.(*degradation.PairwiseOracle)
	if !ok {
		return nil
	}
	m := pw.Matrix()
	s.pairM = m
	w := make([][]float64, s.n)
	for i := 0; i < s.n; i++ {
		w[i] = make([]float64, s.n)
		for j := 0; j < s.n; j++ {
			w[i][j] = m[i][j] + m[j][i]
		}
	}
	return w
}

// lazyKSmallest enumerates the nodes {leader} ∪ S, S ⊆ avail, |S| = u-1,
// in ascending order of node weight without materialising the level. It
// is a best-first search over include/exclude decisions on avail sorted
// by leader-pair cost; the admissible completion bound is the sum of the
// cheapest remaining leader-pair costs. emit returning false stops the
// enumeration.
func (s *Solver) lazyKSmallest(leader job.ProcID, avail []job.ProcID, emit func(node []job.ProcID) bool) {
	r := s.u - 1
	m := len(avail)
	if r == 0 {
		emit([]job.ProcID{leader})
		return
	}
	if m < r {
		return
	}
	li := int(leader) - 1
	// Sort available processes by their pair cost with the leader.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	scores := make([]float64, m)
	for i, p := range avail {
		scores[i] = s.pairW[li][int(p)-1]
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] < scores[idx[b]]
		}
		return avail[idx[a]] < avail[idx[b]]
	})
	sortedAvail := make([]job.ProcID, m)
	sortedS := make([]float64, m)
	for i, id := range idx {
		sortedAvail[i] = avail[id]
		sortedS[i] = scores[id]
	}
	prefix := make([]float64, m+1)
	for i, v := range sortedS {
		prefix[i+1] = prefix[i] + v
	}
	tail := func(pos, need int) float64 {
		if pos+need > m {
			return math.Inf(1)
		}
		return prefix[pos+need] - prefix[pos]
	}

	var lq lazyQueue
	heap.Init(&lq)
	push := func(members []int32, pos int, exact float64) {
		need := r - len(members)
		b := exact + tail(pos, need)
		if math.IsInf(b, 1) {
			return
		}
		heap.Push(&lq, lazyState{bound: b, exact: exact, members: members, pos: pos})
	}
	push(nil, 0, 0)

	node := make([]job.ProcID, s.u)
	for lq.Len() > 0 {
		st := heap.Pop(&lq).(lazyState)
		if len(st.members) == r {
			node[0] = leader
			for i, mi := range st.members {
				node[i+1] = sortedAvail[mi]
			}
			sortNode(node)
			if !emit(node) {
				return
			}
			continue
		}
		// Include sortedAvail[st.pos].
		inc := st.exact + sortedS[st.pos]
		for _, mi := range st.members {
			inc += s.pairW[int(sortedAvail[mi])-1][int(sortedAvail[st.pos])-1]
		}
		withNew := make([]int32, len(st.members)+1)
		copy(withNew, st.members)
		withNew[len(st.members)] = int32(st.pos)
		push(withNew, st.pos+1, inc)
		// Exclude it.
		push(st.members, st.pos+1, st.exact)
	}
}

// sortNode sorts a node's processes ascending in place (u is tiny, so
// insertion sort).
func sortNode(node []job.ProcID) {
	for i := 1; i < len(node); i++ {
		for j := i; j > 0 && node[j] < node[j-1]; j-- {
			node[j], node[j-1] = node[j-1], node[j]
		}
	}
}

type lazyState struct {
	bound   float64
	exact   float64
	members []int32
	pos     int
}

type lazyQueue []lazyState

func (q lazyQueue) Len() int { return len(q) }
func (q lazyQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return len(q[i].members) > len(q[j].members)
}
func (q lazyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *lazyQueue) Push(x interface{}) { *q = append(*q, x.(lazyState)) }
func (q *lazyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
