package astar

import (
	"math"
	"math/bits"
	"slices"

	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// forEachCandidate produces the candidate nodes for expanding element e at
// the given valid level: all of them for OA*, or the first KPerLevel valid
// nodes in ascending weight order for HA* (§IV). Candidate nodes sharing a
// condensation key are attempted once when condensation is on (§III-E):
// by level-table class where the solver has a table (levelCandidates),
// otherwise by key, deduped in the solver's condSeen, reset per
// expansion. fn receives the node's members' costs from the level table,
// or nil where there is none. avail must ascend above the leader, as
// available builds it.
func (s *Solver) forEachCandidate(e *element, leader job.ProcID, avail []job.ProcID, stats *Stats, fn func(node []job.ProcID, costs []float64)) {
	k := s.opts.KPerLevel
	if k <= 0 && s.levels != nil {
		s.levelCandidates(leader, avail, stats, fn)
		return
	}
	var seen *wordSet
	if s.opts.Condense && len(s.parJobs) > 0 {
		if s.scr.condSeen == nil {
			s.scr.condSeen = newWordSet(s.u)
			s.scr.condKeyBuf = make([]uint64, 0, s.u)
		}
		seen = s.scr.condSeen
		seen.reset()
	}
	condensed := func(node []job.ProcID) bool {
		if seen == nil || seen.add(s.gr.AppendCondenseKey(s.scr.condKeyBuf[:0], node)) {
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
				fn(node, nil)
			}
			return true
		})
		return
	}

	if k <= 0 {
		s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
			if !condensed(node) {
				fn(node, nil)
			}
			return true
		})
		return
	}

	// The pairwise fast path implies an all-serial batch: nothing
	// condenses on it.
	if s.pairW != nil {
		emit := func(node []job.ProcID) { fn(node, nil) }
		if s.walksLevel(len(avail), k) {
			s.walkPairLevel(leader, avail, k, emit)
		} else {
			s.anchoredCandidates(leader, avail, k, emit)
		}
		return
	}

	// Without the pairwise fast path: enumerate the whole level
	// restricted to avail, weigh each node through the node memo, and
	// attempt its k cheapest. The nodes live flat (u-stride) in solver
	// scratch; a binary min-heap over a permutation of them pops the
	// cheapest until k are emitted, in O(N + k log N) where a whole-level
	// sort costs O(N log N). A level's nodes are distinct, so (weight,
	// lessNodes) is a total order and the pops are exactly the sorted
	// prefix, condensed skips included.
	u := s.u
	sc := &s.scr
	flat, ws := sc.flat[:0], sc.w[:0]
	s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
		flat = append(flat, node...)
		ws = append(ws, s.cost.NodeWeight(node))
		return true
	})
	sc.flat, sc.w = flat, ws
	nc := len(ws)
	if cap(sc.idx) < nc {
		sc.idx = make([]int32, nc)
	}
	h := candHeap{idx: sc.idx[:nc], w: ws, flat: flat, u: u}
	h.init()
	for emitted := 0; emitted < k && len(h.idx) > 0; {
		id := int(h.pop())
		node := flat[id*u : id*u+u]
		if condensed(node) {
			continue
		}
		fn(node, nil)
		emitted++
	}
}

// levelCandidates is forEachCandidate's whole level on a solver with a
// level table: every node {leader} ∪ S, S ⊆ avail, |S| = u-1, in
// graph.ForEachNode's order, each passed with its costs from the table.
// The walk carries each node's table index as it places members, a prefix
// sum of graph.LevelTable.Term, so only the members that change are
// re-ranked. Nodes of one condensation class are attempted once: the
// first marks its class with the expansion's epoch, and a later node of a
// marked class counts as condensed. Nothing is keyed, hashed or looked up,
// and all storage is solver scratch.
func (s *Solver) levelCandidates(leader job.ProcID, avail []job.ProcID, stats *Stats, fn func(node []job.ProcID, costs []float64)) {
	t := s.levels
	u, r, m := s.u, s.u-1, len(avail)
	if m < r {
		return
	}
	sc := &s.scr
	if cap(sc.node) < u {
		sc.node = make([]job.ProcID, u)
	}
	if cap(sc.rank) < u {
		sc.walkPos = make([]int, r)
		sc.rank = make([]int, u)
	}
	node, pos, rank := sc.node[:u], sc.walkPos[:r], sc.rank[:u]
	var mark []uint32
	if t.Condensed() {
		if len(sc.classMark) < t.Classes() {
			sc.classMark = make([]uint32, t.Classes())
		}
		mark = sc.classMark
		sc.classEpoch++
		if sc.classEpoch == 0 {
			clear(mark)
			sc.classEpoch = 1
		}
	}
	ep := sc.classEpoch
	node[0] = leader
	rank[0] = t.Start(leader)
	for i := range pos {
		pos[i] = i
	}
	// Positions i.. changed since the last node; place their members.
	for i := 0; ; {
		for ; i < r; i++ {
			p := avail[pos[i]]
			node[i+1] = p
			rank[i+1] = rank[i] + t.Term(leader, p, i+1)
		}
		id := rank[r]
		if mark == nil {
			fn(node, t.Costs(id))
		} else if c := t.Class(id); mark[c] != ep {
			mark[c] = ep
			fn(node, t.Costs(id))
		} else {
			stats.Condensed++
		}
		// Advance the combination as ForEachNode does.
		i = r - 1
		for i >= 0 && pos[i] == m-r+i {
			i--
		}
		if i < 0 {
			return
		}
		pos[i]++
		for j := i + 1; j < r; j++ {
			pos[j] = pos[j-1] + 1
		}
	}
}

// boundSlack is the relative margin by which walkPairLevel's bound must
// clear the heap's top before it prunes. The bound and a node's weight
// are the same kind of sum, of finite non-negative terms, rounded in
// different orders; each is within about u² ulps of its exact value, so
// a margin of 1e-9 is far more than rounding can explain for any
// machine size, and only a near-tie is ever walked for nothing.
const boundSlack = 1e-9

// walksLevel reports whether a pairwise level of m available processes
// under a budget of k goes to walkPairLevel: when it holds at most
// smallLevel nodes, or at a budget of at most exactWalkMaxK at u ≤ 5.
// Every other level goes to anchoredCandidates.
func (s *Solver) walksLevel(m, k int) bool {
	return graph.Binomial(m, s.u-1) <= smallLevel || k <= exactWalkMaxK && s.u <= 5
}

// walkPairLevel emits, cheapest first, the k cheapest nodes of a level
// under the pairwise fast path: {leader} plus u-1 of avail, ranked by
// (weight, lessNodes), a node's weight being its pair costs summed row
// by row over the sorted node (row node[i] against node[0..i-1], i
// ascending). forEachCandidate sends it the levels walksLevel selects. It
// walks the leader's view of avail (leaderView) with walkLevel, for one
// walker, into a k-slot heap in solver scratch.
func (s *Solver) walkPairLevel(leader job.ProcID, avail []job.ProcID, k int, fn func(node []job.ProcID)) {
	u, r, m := s.u, s.u-1, len(avail)
	sc := &s.scr
	if r == 0 {
		sc.node = append(sc.node[:0], leader)
		fn(sc.node)
		return
	}
	if m < r {
		return
	}
	if level := graph.Binomial(m, r); int64(k) > level {
		k = int(level)
	}
	if cap(sc.w) < k {
		sc.w = make([]float64, k)
		sc.idx = make([]int32, k)
	}
	if cap(sc.flat) < k*u {
		sc.flat = make([]job.ProcID, k*u)
	}
	view, lc := s.leaderView(leader, avail)
	heaps := [1]walkHeap{{size: int32(k)}}
	s.walkLevel(leader, view, lc, nil, 1, heaps[:], sc.flat[:k*u], sc.w[:k], sc.idx[:k])
	flat := sc.flat
	for _, id := range sc.idx[:heaps[0].stored] {
		fn(flat[int(id)*u : int(id)*u+u])
	}
}

// walkHeap is one walker's heap of its k cheapest nodes in a walkLevel
// store: slots [first, first+size) of it, size being min(k, C(m, u-1))
// for the walker's m available processes, stored of them filled, and
// cut the heap top's weight plus boundSlack once full (+Inf before).
// Once walked, the store's idx holds the walker's slots, relative to
// first, cheapest first.
type walkHeap struct {
	first, size, stored int32
	cut                 float64
}

// walkLevel walks the level {leader} plus u-1 of view, u ≥ 2, where view
// ascends by (pair cost with the leader, ID) and lc holds those costs,
// for every walker: bit b of walkers is walker b, whose k cheapest nodes
// heaps[b] keeps in the store (flat, u-stride, with weights ws and heap
// order idx). Walker b has view[p] when bit b of masks[p] is set; masks
// nil means one walker, bit 0, that has every position.
//
// It walks the combinations depth-first over view, carrying each
// prefix's weight and the walkers that have all of its members; a prefix
// no walker has is skipped, and each leaf goes to the heap of every
// walker that has it. Depth d places the (d+1)-th member at view position
// p or later; every completion of the prefix then weighs at least
//
//	pre[d] + lc[p] + … + lc[p+r-d-1] + (r-d)·(rowMin(node[1]) + … + rowMin(node[d]))
//
// because pair costs are finite and non-negative (NewPairwiseOracle's
// premise), the leader costs lc ascend along the view, and every later
// member comes from the view, so its pair cost with a placed member y is
// at least y's row minimum over the view (viewRowMin). A walker's own
// view is a subsequence of view, whose row minima are at most its own,
// so the bound holds for every walker. It grows with p, so once every
// heap is full and the bound clears the loosest top (the largest cut) by
// more than boundSlack, no later position at that depth can place a node
// in any heap and the depth stops. A node met later in the walk may still
// win a weight tie on lessNodes, so a tie never prunes. Each leaf's
// weight is recomputed over the sorted node in the summation order
// above, so each heap ends as its walker's sorted prefix a whole-level
// sort would give, with the same sums bit for bit, and is then sorted
// in place, cheapest first; nothing beyond the heaps is stored.
func (s *Solver) walkLevel(leader job.ProcID, view []job.ProcID, lc []float64, masks []uint64, walkers uint64, heaps []walkHeap, flat []job.ProcID, ws []float64, idx []int32) {
	u, r, m := s.u, s.u-1, len(view)
	sc := &s.scr
	if cap(sc.node) < u {
		sc.node = make([]job.ProcID, u)
	}
	if cap(sc.leaf) < u {
		sc.leaf = make([]job.ProcID, u)
	}
	if cap(sc.pos) < r {
		sc.pos = make([]int, r)
		sc.pre = make([]float64, r)
		sc.mins = make([]float64, r)
		sc.pmask = make([]uint64, r)
	}
	rm := s.walkRowMins()
	node, leaf := sc.node[:u], sc.leaf[:u]
	pos, pre, mins, pmask := sc.pos[:r], sc.pre[:r], sc.mins[:r], sc.pmask[:r]
	open := bits.OnesCount64(walkers) // heaps not yet full
	for wk := walkers; wk != 0; wk &= wk - 1 {
		wh := &heaps[bits.TrailingZeros64(wk)]
		wh.stored, wh.cut = 0, math.Inf(1)
	}
	loose := math.Inf(1) // the largest cut, once every heap is full
	h := candHeap{u: u, max: true}
	node[0] = leader
	pos[0], pre[0], mins[0], pmask[0] = 0, 0, 0, walkers
	// Depth d places node[d+1] = view[pos[d]] on a prefix of weight
	// pre[d] whose members' row minima sum to mins[d] and which the
	// walkers pmask[d] have; r-1-d more processes must fit after it.
	for d := 0; ; {
		p := pos[d]
		stop := p > m-r+d
		if !stop && open == 0 {
			b := pre[d]
			for _, l := range lc[p : p+r-d] {
				b += l
			}
			stop = b+float64(r-d)*mins[d] > loose
		}
		if stop {
			if d == 0 {
				break
			}
			d--
			pos[d]++
			continue
		}
		pm := pmask[d]
		if masks != nil {
			if pm &= masks[p]; pm == 0 {
				pos[d]++
				continue
			}
		}
		x := view[p]
		node[d+1] = x
		row := s.pairW[int(x)-1]
		w := pre[d] + lc[p]
		for _, y := range node[1 : d+1] {
			w += row[int(y)-1]
		}
		if d < r-1 {
			pre[d+1] = w
			mins[d+1] = mins[d] + rm.of(x, row, view)
			pmask[d+1] = pm
			pos[d+1] = p + 1
			d++
			continue
		}
		pos[d]++
		if w > loose {
			continue // the same sum, rounded in walk order
		}
		copy(leaf, node)
		sortNode(leaf)
		w = 0
		for i := 1; i < u; i++ {
			row := s.pairW[int(leaf[i])-1]
			for _, y := range leaf[:i] {
				w += row[int(y)-1]
			}
		}
		cut := false // a full heap's top changed
		for ; pm != 0; pm &= pm - 1 {
			wh := &heaps[bits.TrailingZeros64(pm)]
			first, size := int(wh.first), int(wh.size)
			at := first + int(wh.stored)
			if int(wh.stored) == size {
				at = first + int(idx[first])
				if w > ws[at] || w == ws[at] && !lessNodes(leaf, flat[at*u:at*u+u]) {
					continue
				}
			}
			copy(flat[at*u:], leaf)
			ws[at] = w
			if int(wh.stored) < size-1 {
				wh.stored++
				continue
			}
			h.idx, h.w, h.flat = idx[first:first+size], ws[first:first+size], flat[first*u:(first+size)*u]
			if int(wh.stored) < size {
				wh.stored++
				h.init()
				open--
			} else {
				h.down(0)
			}
			wh.cut = h.w[h.idx[0]] * (1 + boundSlack)
			cut = true
		}
		if cut && open == 0 {
			loose = 0
			for wk := walkers; wk != 0; wk &= wk - 1 {
				loose = max(loose, heaps[bits.TrailingZeros64(wk)].cut)
			}
		}
	}
	// Heap-sort each heap in place: each popped greatest lands in the
	// slot the shrinking heap just gave up, leaving its order ascending.
	for wk := walkers; wk != 0; wk &= wk - 1 {
		wh := &heaps[bits.TrailingZeros64(wk)]
		first, size := int(wh.first), int(wh.size)
		h.idx, h.w, h.flat = idx[first:first+int(wh.stored)], ws[first:first+size], flat[first*u:(first+size)*u]
		if wh.stored < wh.size {
			h.init()
		}
		order := h.idx
		for len(h.idx) > 0 {
			last := len(h.idx) - 1
			order[last] = h.pop()
		}
	}
}

// viewRowMin is x's smallest pair cost (row, x's row of the pair-cost
// matrix) against the other processes of view, 0 if there are none.
func viewRowMin(row []float64, x job.ProcID, view []job.ProcID) float64 {
	lo := math.Inf(1)
	for _, z := range view {
		if c := row[int(z)-1]; c < lo && z != x {
			lo = c
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return lo
}

// rowMins holds one walk's row minima over its view, computed the first
// time a process is placed: min[p-1] is process p's where at[p-1] holds
// the walk's epoch ep.
type rowMins struct {
	ep  uint32
	min []float64
	at  []uint32
}

// walkRowMins starts a walk's row minima in solver scratch.
func (s *Solver) walkRowMins() *rowMins {
	rm := &s.scr.rowMins
	if len(rm.at) < s.n {
		rm.min = make([]float64, s.n)
		rm.at = make([]uint32, s.n)
	}
	rm.ep++
	if rm.ep == 0 {
		clear(rm.at)
		rm.ep = 1
	}
	return rm
}

// of returns x's row minimum over view (viewRowMin), row being x's row.
func (rm *rowMins) of(x job.ProcID, row []float64, view []job.ProcID) float64 {
	xi := int(x) - 1
	if rm.at[xi] != rm.ep {
		rm.at[xi] = rm.ep
		rm.min[xi] = viewRowMin(row, x, view)
	}
	return rm.min[xi]
}

// candHeap is a binary heap over slot indices into a flat node store,
// ordered by (weight, lessNodes): a min-heap for the non-pairwise
// fallback's whole level, a max-heap (max set) for walkLevel's k
// cheapest.
type candHeap struct {
	idx  []int32
	w    []float64
	flat []job.ProcID
	u    int
	max  bool
}

// above reports whether slot a belongs above slot b.
func (h *candHeap) above(a, b int32) bool {
	if h.max {
		a, b = b, a
	}
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
		if r := c + 1; r < n && h.above(idx[r], idx[c]) {
			c = r
		}
		if !h.above(idx[c], idx[i]) {
			return
		}
		idx[i], idx[c] = idx[c], idx[i]
		i = c
	}
}

// pop removes and returns the top slot.
func (h *candHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	h.down(0)
	return top
}

const (
	// smallLevel is the node count up to which a pairwise level is
	// ranked exactly, by walkPairLevel, under any budget.
	smallLevel = 20000
	// exactWalkMaxK is the largest per-level budget at which a pairwise
	// level above smallLevel is ranked exactly, by walkPairLevel, at
	// u ≤ 5; a larger budget or deeper nodes go to anchoredCandidates.
	// The walk prunes against the k-th cheapest weight met so far, a cut
	// that rises with k, with a row-minimum bound that weakens as u-1
	// grows.
	exactWalkMaxK = 12
)

// anchoredCandidates approximates the k cheapest nodes of a level at
// scale: the j-th candidate anchors the leader to its j-th cheapest
// partner (by pair cost) and completes the node greedily, which yields k
// diverse low-weight nodes — the HA* trimming spirit of §IV without the
// paper's full level sort, which is infeasible at C(n-1, u-1) nodes per
// level (documented in DESIGN.md §3).
//
// A greedy pick takes the non-member position p of the leader's view of
// the availability (leaderView) with the least acc[p], the pair cost of
// sorted[p] against the node built so far: the leader's cost l_p plus
// each member's row in node order, the sums a member-by-member total
// gives, bit for bit. The
// first position wins ties. Positions are reached in order and stay
// reached for the anchor: a pick adds the newest member's row to the
// positions [0, hi) an earlier pick reached, then reaches further only
// while the chain fl(…fl(l_hi + rowMin(node[1])) … + rowMin(node[t]))
// stays below the best increment, a newly reached position summing its
// rows from l_p. Rounded addition is monotone, l_p ascends with p and no
// row entry is below its row's minimum (pairMin), so the chain bounds
// every unreached acc from below and nothing past the stop can win. The
// chain is only summed where l_p reaches the best increment less the
// minima's sum; that pre-check can delay a stop but never make one, so
// its own rounding cannot cost a position.
//
// All working storage is solver scratch, reused across expansions;
// membership is a per-anchor stamp, so a new anchor resets nothing. A
// member's acc is +Inf, which no pair cost reaches and adding a row
// keeps, so the rescan reads no stamp.
func (s *Solver) anchoredCandidates(leader job.ProcID, avail []job.ProcID, k int, emit func(node []job.ProcID)) {
	r := s.u - 1
	m := len(avail)
	sc := &s.scr
	if cap(sc.node) < s.u {
		sc.node = make([]job.ProcID, s.u)
	}
	if r == 0 {
		emit(append(sc.node[:0], leader))
		return
	}
	if m < r {
		return
	}
	sorted, lc := s.leaderView(leader, avail)
	if cap(sc.acc) < m {
		sc.acc = make([]float64, m)
		sc.stamp = make([]int32, m)
	}
	acc, stamp := sc.acc[:m], sc.stamp[:m]
	clear(stamp)
	if sc.seen == nil {
		sc.seen = newWordSet(nodeKeyStride(s.u))
		sc.keyBuf = make([]uint64, 0, sc.seen.stride)
	}
	seen := sc.seen
	seen.reset()
	node := sc.node[:0]
	for j := 0; j < m; j++ {
		anchor := int32(j + 1) // stamps this anchor's members
		node = append(node[:0], leader, sorted[j])
		stamp[j] = anchor
		hi := 0
		for len(node) < s.u {
			row := s.pairW[int(node[len(node)-1])-1]
			best := -1
			bestInc := math.Inf(1)
			for p, x := range sorted[:hi] {
				inc := acc[p] + row[int(x)-1] // a member's +Inf stays +Inf
				acc[p] = inc
				if inc < bestInc {
					bestInc, best = inc, p
				}
			}
			var minSum float64
			for _, y := range node[1:] {
				minSum += s.pairMin[int(y)-1]
			}
			lo := bestInc - minSum
			for ; hi < m; hi++ {
				l := lc[hi]
				if l >= lo {
					bound := l
					for _, y := range node[1:] {
						bound += s.pairMin[int(y)-1]
					}
					if bound >= bestInc {
						break
					}
				}
				if stamp[hi] == anchor {
					acc[hi] = math.Inf(1)
					continue
				}
				x := sorted[hi]
				inc := l
				for _, y := range node[1:] {
					inc += s.pairW[int(y)-1][int(x)-1]
				}
				acc[hi] = inc
				if inc < bestInc {
					bestInc, best = inc, hi
					lo = bestInc - minSum
				}
			}
			if best < 0 {
				break
			}
			node = append(node, sorted[best])
			stamp[best] = anchor
			acc[best] = math.Inf(1)
		}
		if len(node) < s.u {
			continue
		}
		sortNode(node)
		if !seen.add(packNodeWords(sc.keyBuf[:0], node)) {
			continue
		}
		emit(node)
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
// lets walkPairLevel and anchoredCandidates rank nodes without weighing
// the whole level.
// It also fills pairMin, each row's smallest off-diagonal entry.
// Leader orders and anchored node keys hold process IDs in 16 bits, so
// a batch of more than 65,535 processes (two n² float64 matrices of
// over 32 GiB each) takes no fast path.
func (s *Solver) pairWeights() [][]float64 {
	if s.n > math.MaxUint16 {
		return nil
	}
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
	s.pairMin = make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		w[i] = make([]float64, s.n)
		lo := math.Inf(1)
		for j := 0; j < s.n; j++ {
			w[i][j] = m[i][j] + m[j][i]
			if j != i && w[i][j] < lo {
				lo = w[i][j]
			}
		}
		if math.IsInf(lo, 1) {
			lo = 0
		}
		s.pairMin[i] = lo
	}
	return w
}

// leaderView returns avail in its leader's order, ascending (pair cost
// with the leader, ID) as a sort of avail by that key would leave it,
// and the leader's pair costs alongside. The order over every other
// process is built once per leader, the first time that leader expands
// (leaderOrder); a call then only stamps avail and filters the order by
// the stamp, with no comparisons. Both slices are solver scratch, valid
// until the next call.
func (s *Solver) leaderView(leader job.ProcID, avail []job.ProcID) ([]job.ProcID, []float64) {
	sc := &s.scr
	li := int(leader) - 1
	ord := s.leaderOrderOf(li)
	if sc.mark == nil {
		sc.mark = make([]uint32, s.n)
	}
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
	ep, mark := sc.epoch, sc.mark
	for _, p := range avail {
		mark[int(p)-1] = ep
	}
	lrow := s.pairW[li]
	view, cost := sc.view[:0], sc.viewCost[:0]
	for _, q := range ord {
		if mark[q] != ep {
			continue
		}
		view = append(view, job.ProcID(q)+1)
		cost = append(cost, lrow[q])
		if len(view) == len(avail) {
			break
		}
	}
	sc.view, sc.viewCost = view, cost
	return view, cost
}

// leaderOrderOf returns the leader's order (leaderOrder) for the leader
// at 0-based index li, building it the first time that leader expands
// and keeping it in solver scratch for the solver's life.
func (s *Solver) leaderOrderOf(li int) []uint16 {
	sc := &s.scr
	if sc.orders == nil {
		sc.orders = make([][]uint16, s.n)
	}
	ord := sc.orders[li]
	if ord == nil {
		ord = s.leaderOrder(li)
		sc.orders[li] = ord
	}
	return ord
}

// leaderOrder ranks every process but the leader (0-based index li) by
// (pair cost with the leader, ID), as 0-based indices; pairWeights
// guarantees they fit 16 bits.
func (s *Solver) leaderOrder(li int) []uint16 {
	ord := make([]uint16, 0, s.n-1)
	for q := 0; q < s.n; q++ {
		if q != li {
			ord = append(ord, uint16(q))
		}
	}
	row := s.pairW[li]
	slices.SortFunc(ord, func(a, b uint16) int {
		if row[a] != row[b] {
			if row[a] < row[b] {
				return -1
			}
			return 1
		}
		return int(a) - int(b)
	})
	return ord
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
