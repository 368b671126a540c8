package astar

import (
	"math"
	"math/bits"

	"cosched/internal/graph"
	"cosched/internal/job"
)

// maxGroup is the number of parents one leader group holds: a parent is
// one bit of the group's availability masks. A leader shared by more
// parents (a beam wider than 64) opens a further group.
const maxGroup = 64

// maxShareU is the largest machine size whose beam depths share their
// pairwise candidates. On 8-core machines a node takes six picks, so a
// group's prefixes split early and a stream serves about three parents
// where it serves eight on quad-core. Sharing measured slower there
// (DESIGN.md §5a), so those depths keep the per-parent generators.
const maxShareU = 5

// depthShare is one beam depth's shared pairwise candidate state: the
// depth's parents grouped by leader (leaderGroup), built by shareDepth
// over the parents one generator expands and read by depthCandidates.
// It is solver scratch, reset per depth and reused across depths and
// solves, so a warm depth allocates nothing.
type depthShare struct {
	// groups[:used] are this depth's groups; the slots beyond keep their
	// buffers for a later depth.
	groups []leaderGroup
	used   int
	// slot[i] is parent i's group times maxGroup plus its bit in the
	// group, or -1 for a parent with nothing to share.
	slot []int32
	// procMask is all zeros between calls: groupDepth ORs each parent's
	// bit into the entries of its available processes, reads a group's
	// union off it and zeros it again.
	procMask []uint64
	// The anchored streams of every group and their entries, in arenas.
	// acc holds the accumulators of the stream being built, and stamp
	// marks its members' view positions with epoch.
	streams []pickStream
	ent     []int32
	acc     []float64
	stamp   []uint32
	epoch   uint32
	// The walking parents' heaps (walkLevel's store), in slots of one
	// arena sized per depth: heapNodes holds a slot's node (u-stride),
	// heapW its weight, heapIdx a heap over a parent's slots and, once
	// walked, the parent's slots cheapest first.
	heapNodes []job.ProcID
	heapW     []float64
	heapIdx   []int32
}

// leaderGroup is the parents of one depth that share a leader (their
// smallest unscheduled process), at most maxGroup of them, and the
// pairwise candidates served to them from work done once for the group.
//
// U is the union of the parents' availabilities (the leader excluded),
// held in the leader's order: view ascends by (pair cost with the leader,
// ID), as leaderView would order it, lc holds those costs, and mask[p]
// has bit b set when the group's parent b has view[p] available. A
// parent's own leader view is view restricted to its bits, in the same
// order, so its k cheapest nodes and its greedy picks can be read off
// state built over U:
//
//   - Anchored levels (sharedAnchored) read each pick from a pickStream,
//     one per prefix (anchor, pick₁, …) met by any of the group's
//     parents. The streams form a tree under root, one per anchor
//     position; a child stream is keyed by the position its parent
//     stream's pick came from.
//   - Walked levels (sharedWalk) read the parent's k cheapest nodes from
//     one walk over U's level (walkLevel) that keeps each walking
//     parent's own heap.
type leaderGroup struct {
	leader  job.ProcID
	parents int
	view    []job.ProcID
	lc      []float64
	mask    []uint64
	// root[p] is the anchored stream at view position p, -1 until a
	// parent needs it.
	root []int32
	// walkers has bit b set when parent b's level is walked; heaps[b] is
	// its heap in the depth's arena. walked is set once U's level was
	// walked this depth.
	walkers uint64
	heaps   []walkHeap
	walked  bool
}

// pickStream is the start of a ranking of a group's U positions by
// (acc, position) for one prefix of members (anchor, pick₁, …, pickₜ),
// acc[p] being view[p]'s pair cost against the node built so far: the
// leader's cost lc[p], then each member's row in node order, summed left
// to right exactly as anchoredCandidates sums it. Positions are reached
// in view order; members hold +Inf, which no pair cost reaches. The
// entries are the first positions of that ranking, each final when
// taken: at or below the reach bound
// fl(…fl(lc[hi] + pairMin(member₁)) … + pairMin(memberₜ)) that every
// unreached position's acc is at least (anchoredCandidates' argument),
// so a tie with an unreached position goes to the entry, the earlier
// position. They run until every parent that takes this prefix (has its
// members available and, for each pick, none of the earlier entries of
// the stream it came from) has one available, or the positions run out;
// a parent's pick is the first entry it has available.
type pickStream struct {
	ent   int32 // first entry in the depth's arena; they end where the next stream's begin
	pick  int32 // position of the last member, the key among siblings
	child int32 // first child stream, -1 if none
	next  int32 // next sibling, -1 if none
}

// shareDepth prepares one beam depth's parents, the elements a generator
// is about to expand, for depthCandidates: only pairwise HA* at
// u ≤ maxShareU shares (groupDepth); any other parent takes the
// per-parent generators.
func (s *Solver) shareDepth(parents []*element) {
	if s.pairW != nil && s.opts.KPerLevel > 0 && s.u >= 2 && s.u <= maxShareU {
		s.groupDepth(parents)
		return
	}
	sh := &s.scr.share
	sh.slot, sh.used = sh.slot[:0], 0
	for range parents {
		sh.slot = append(sh.slot, -1)
	}
}

// groupDepth groups parents by leader and builds each shared group's
// union and its view; a parent alone with its leader takes the
// per-parent generators. It needs the pairwise fast path and u ≥ 2.
func (s *Solver) groupDepth(parents []*element) {
	sh := &s.scr.share
	sh.slot, sh.used = sh.slot[:0], 0
	k, slots, widest := s.opts.KPerLevel, 0, 0
	for _, e := range parents {
		leader := job.ProcID(e.set.SmallestAbsent(s.n))
		if leader == 0 {
			sh.slot = append(sh.slot, -1)
			continue
		}
		gi := 0
		for gi < sh.used && (sh.groups[gi].leader != leader || sh.groups[gi].parents == maxGroup) {
			gi++
		}
		if gi == sh.used {
			if sh.used == len(sh.groups) {
				sh.groups = append(sh.groups, leaderGroup{})
			}
			sh.used++
			sh.groups[gi].leader, sh.groups[gi].parents = leader, 0
		}
		g := &sh.groups[gi]
		sh.slot = append(sh.slot, int32(gi*maxGroup+g.parents))
		g.parents++
	}
	if cap(sh.procMask) < s.n {
		sh.procMask = make([]uint64, s.n)
		sh.stamp = make([]uint32, s.n)
		sh.acc = make([]float64, 0, s.n)
	}
	pm := sh.procMask[:s.n]
	for gi := range sh.groups[:sh.used] {
		g := &sh.groups[gi]
		if g.parents < 2 {
			continue
		}
		size := 0
		g.walkers, g.walked, g.heaps = 0, false, g.heaps[:0]
		for i, e := range parents {
			sl := int(sh.slot[i])
			if sl < 0 || sl/maxGroup != gi {
				continue
			}
			bit := uint64(1) << (sl % maxGroup)
			e.set.ForEachAbsent(s.n, func(v int) bool {
				if pm[v-1] == 0 {
					size++
				}
				pm[v-1] |= bit
				return true
			})
			// Bits go to a group's parents in order, so heaps[b] is bit b's.
			var h walkHeap
			if m := s.n - e.q - 1; m >= s.u-1 && s.walksLevel(m, k) {
				g.walkers |= bit
				h.first, h.size = int32(slots), int32(min(int64(k), graph.Binomial(m, s.u-1)))
				slots += int(h.size)
				widest = max(widest, int(h.size))
			}
			g.heaps = append(g.heaps, h)
		}
		li := int(g.leader) - 1
		pm[li] = 0 // every parent lacks its leader
		size--
		lrow := s.pairW[li]
		g.view, g.lc, g.mask = reserve(g.view[:0], size), reserve(g.lc[:0], size), reserve(g.mask[:0], size)
		for _, q := range s.leaderOrderOf(li) {
			if len(g.view) == size {
				break
			}
			if pm[q] == 0 {
				continue
			}
			g.view = append(g.view, job.ProcID(q)+1)
			g.lc = append(g.lc, lrow[q])
			g.mask = append(g.mask, pm[q])
			pm[q] = 0
		}
		g.root = reserve(g.root[:0], size)
		for range g.view {
			g.root = append(g.root, -1)
		}
	}
	if slots > len(sh.heapW) {
		// Room for every parent at the widest heap, so a later depth
		// whose groups walk more parents fits too.
		slots = max(slots, len(parents)*widest)
		sh.heapNodes = make([]job.ProcID, slots*s.u)
		sh.heapW = make([]float64, slots)
		sh.heapIdx = make([]int32, slots)
	}
	sh.streams, sh.ent = sh.streams[:0], sh.ent[:0]
}

// depthCandidates is forEachCandidate for parent i of the last
// shareDepth call, e with leader leader: a parent that shares its leader
// is served from its group, anchored or walked as forEachCandidate's
// pairwise branch would choose for its own availability, and emits
// exactly the nodes, in exactly the order, that branch emits; any other
// parent goes to forEachCandidate.
func (s *Solver) depthCandidates(i int, e *element, leader job.ProcID, stats *Stats, fn func(node []job.ProcID, costs []float64)) {
	sh := &s.scr.share
	if sl := int(sh.slot[i]); sl >= 0 && sh.groups[sl/maxGroup].parents > 1 {
		g := &sh.groups[sl/maxGroup]
		bit := uint64(1) << (sl % maxGroup)
		k, m := s.opts.KPerLevel, s.n-e.q-1
		switch {
		case m < s.u-1: // no node fits
		case s.walksLevel(m, k):
			s.sharedWalk(g, bit, fn)
		default:
			s.sharedAnchored(g, bit, k, fn)
		}
		return
	}
	s.forEachCandidate(e, leader, s.available(e, leader), stats, fn)
}

// sharedAnchored is anchoredCandidates for the parent of group g at bit
// bit: its anchors are the group's view positions it has available, in
// order, and each greedy pick is the first entry it has available of the
// stream for the prefix built so far, which is the non-member position of
// its own view with the least (acc, position), the pick
// anchoredCandidates makes. Nodes are deduped and counted against k as
// there.
func (s *Solver) sharedAnchored(g *leaderGroup, bit uint64, k int, fn func(node []job.ProcID, costs []float64)) {
	sc := &s.scr
	sh := &sc.share
	u := s.u
	if cap(sc.node) < u {
		sc.node = make([]job.ProcID, u)
	}
	if cap(sc.chain) < u {
		sc.chain = make([]int32, u)
	}
	if sc.seen == nil {
		sc.seen = newWordSet(nodeKeyStride(u))
		sc.keyBuf = make([]uint64, 0, sc.seen.stride)
	}
	seen := sc.seen
	seen.reset()
	node, chain := sc.node[:0], sc.chain[:0]
	for a, x := range g.view {
		if g.mask[a]&bit == 0 {
			continue
		}
		node = append(node[:0], g.leader, x)
		chain = append(chain[:0], int32(a))
		// elig: the parents that take this prefix, as pickStream has it;
		// st is its stream once the node needs a pick, p the last pick.
		elig := g.mask[a]
		st, p := int32(-1), int32(-1)
		for len(node) < u {
			switch {
			case p >= 0:
				st = s.childStream(g, st, p, node[1:], chain, elig)
			case g.root[a] >= 0:
				st = g.root[a]
			default:
				st = s.newStream(g, node[1:], chain, elig)
				g.root[a] = st
			}
			var passed uint64
			if p, passed = sh.firstFor(g, st, bit); p < 0 {
				break
			}
			node = append(node, g.view[p])
			chain = append(chain, p)
			elig = elig & g.mask[p] &^ passed
		}
		if len(node) < u {
			continue
		}
		sortNode(node)
		if !seen.add(packNodeWords(sc.keyBuf[:0], node)) {
			continue
		}
		fn(node, nil)
		if seen.count >= k {
			return
		}
	}
}

// entries returns stream st's entries. A stream takes all of its entries
// before the next stream is built, so they end where the next one's
// begin.
func (sh *depthShare) entries(st int32) []int32 {
	end := len(sh.ent)
	if int(st)+1 < len(sh.streams) {
		end = int(sh.streams[st+1].ent)
	}
	return sh.ent[sh.streams[st].ent:end]
}

// firstFor returns the first entry of group g's stream st that the parent
// at bit bit has available, or -1 when the stream ran out of positions
// first, and the parents that have one of the entries before it.
func (sh *depthShare) firstFor(g *leaderGroup, st int32, bit uint64) (int32, uint64) {
	var passed uint64
	for _, p := range sh.entries(st) {
		if g.mask[p]&bit != 0 {
			return p, passed
		}
		passed |= g.mask[p]
	}
	return -1, passed
}

// childStream returns the child of group g's stream st keyed by its entry
// p, building it on first use for the parents elig; members are the
// child's prefix in node order, ending with view[p], and chain their view
// positions.
func (s *Solver) childStream(g *leaderGroup, st, p int32, members []job.ProcID, chain []int32, elig uint64) int32 {
	sh := &s.scr.share
	for c := sh.streams[st].child; c >= 0; c = sh.streams[c].next {
		if sh.streams[c].pick == p {
			return c
		}
	}
	c := s.newStream(g, members, chain, elig)
	sh.streams[c].next = sh.streams[st].child
	sh.streams[st].child = c
	return c
}

// newStream builds group g's stream for the prefix members (view
// positions chain) whose parents are elig, and takes its entries as
// pickStream describes. Each reached position sums its rows from the
// leader's cost in node order, which is how anchoredCandidates' per-pick
// rescans accumulate it too, bit for bit; the accumulators live in
// sh.acc only while the stream is built.
func (s *Solver) newStream(g *leaderGroup, members []job.ProcID, chain []int32, elig uint64) int32 {
	sh := &s.scr.share
	inf := math.Inf(1)
	sh.epoch++
	if sh.epoch == 0 {
		clear(sh.stamp)
		sh.epoch = 1
	}
	ep := sh.epoch
	for _, p := range chain {
		sh.stamp[p] = ep
	}
	sh.acc = sh.acc[:0]
	var minSum float64
	for _, y := range members {
		minSum += s.pairMin[int(y)-1]
	}
	hi, best, bestAcc := s.reachStream(g, members, ep, minSum, 0, -1, inf)
	ent := len(sh.ent)
	for uncovered := elig; best >= 0; {
		sh.ent = append(reserve(sh.ent, 1), int32(best))
		uncovered &^= g.mask[best]
		if uncovered == 0 {
			break
		}
		// The next entry: the least (acc, position) after the last one
		// among the reached positions, then reached further until final.
		// A position reached from here on is at or above the last
		// entry's bound, and later than it, so it follows it.
		lastAcc, last := bestAcc, best
		best, bestAcc = -1, inf
		for p, a := range sh.acc[:hi] {
			if a < bestAcc && (a > lastAcc || a == lastAcc && p > last) {
				bestAcc, best = a, p
			}
		}
		hi, best, bestAcc = s.reachStream(g, members, ep, minSum, hi, best, bestAcc)
	}
	sh.streams = append(reserve(sh.streams, 1), pickStream{
		ent: int32(ent), pick: chain[len(chain)-1],
		child: -1, next: -1,
	})
	return int32(len(sh.streams) - 1)
}

// reachStream extends the stream under construction over group g, whose
// accumulators sh.acc end at position hi, until its best position so
// far (best at bestAcc, -1 for none) is final or every position is
// reached: it stops at the first unreached position whose bound is at or
// above bestAcc. A newly reached position sums its rows from the leader's
// cost in node order; one stamped with ep is a member and holds +Inf.
// minSum, the members' row minima summed, only spares the exact bound
// while lc is clearly below bestAcc, as in anchoredCandidates. It returns
// the new reach and best.
func (s *Solver) reachStream(g *leaderGroup, members []job.ProcID, ep uint32, minSum float64, hi, best int, bestAcc float64) (int, int, float64) {
	sh := &s.scr.share
	view, lc := g.view, g.lc
	lo := bestAcc - minSum
	for ; hi < len(view); hi++ {
		l := lc[hi]
		if l >= lo {
			bound := l
			for _, y := range members {
				bound += s.pairMin[int(y)-1]
			}
			if bound >= bestAcc {
				break
			}
		}
		if sh.stamp[hi] == ep {
			sh.acc = append(sh.acc, math.Inf(1))
			continue
		}
		x := view[hi]
		inc := l
		for _, y := range members {
			inc += s.pairW[int(y)-1][int(x)-1]
		}
		sh.acc = append(sh.acc, inc)
		if inc < bestAcc {
			bestAcc, best = inc, hi
			lo = bestAcc - minSum
		}
	}
	return hi, best, bestAcc
}

// sharedWalk is walkPairLevel for the parent of group g at bit bit: the
// first walking parent of the depth has walkLevel walk U's level for
// every walking parent at once, each into its own heap, and each parent
// then emits its own heap, sorted.
func (s *Solver) sharedWalk(g *leaderGroup, bit uint64, fn func(node []job.ProcID, costs []float64)) {
	sh := &s.scr.share
	if !g.walked {
		s.walkLevel(g.leader, g.view, g.lc, g.mask, g.walkers, g.heaps, sh.heapNodes, sh.heapW, sh.heapIdx)
		g.walked = true
	}
	u := s.u
	h := &g.heaps[bits.TrailingZeros64(bit)]
	first := int(h.first)
	for _, slot := range sh.heapIdx[first : first+int(h.stored)] {
		at := (first + int(slot)) * u
		fn(sh.heapNodes[at:at+u], nil)
	}
}

// reserve returns buf with room for n more elements, growing it to at
// least twice its capacity when it has less; the arenas above and the
// beam's depth table grow so, rather than by append's smaller steps, to
// keep the storage a solve allocates near twice what it keeps.
func reserve[T any](buf []T, n int) []T {
	if cap(buf)-len(buf) >= n {
		return buf
	}
	grown := make([]T, len(buf), max(2*cap(buf), len(buf)+n))
	copy(grown, buf)
	return grown
}
