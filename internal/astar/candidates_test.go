package astar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// referenceCandidates is forEachCandidate's HA* branch (KPerLevel > 0)
// written the direct way: a level under smallLevel (or any level without
// the pairwise fast path) is enumerated whole, sorted by (weight,
// lessNodes) and walked until k non-condensed nodes have been emitted;
// a larger pairwise level goes to referenceAnchored. Condensation keys
// are deduped in a map and every emitted node is a fresh copy, so nothing
// is shared with the solver's scratch. It survives only as the reference
// semantics the heap-select is property-tested against. Levels that
// forEachCandidate hands to lazyKSmallest (see usesLazy) are outside it.
func referenceCandidates(s *Solver, leader job.ProcID, avail []job.ProcID, stats *Stats, fn func(node []job.ProcID)) {
	k := s.opts.KPerLevel
	var seen map[string]bool
	if s.opts.Condense && len(s.parJobs) > 0 {
		seen = map[string]bool{}
	}
	condensed := func(node []job.ProcID) bool {
		if seen == nil {
			return false
		}
		key := fmt.Sprint(s.gr.AppendCondenseKey(nil, node))
		if !seen[key] {
			seen[key] = true
			return false
		}
		stats.Condensed++
		return true
	}
	if s.pairW != nil && graph.Binomial(len(avail), s.u-1) > smallLevel {
		emitted := 0
		referenceAnchored(s, leader, avail, k, func(node []job.ProcID) bool {
			if condensed(node) {
				return true
			}
			fn(node)
			emitted++
			return emitted < k
		})
		return
	}
	var nodes [][]job.ProcID
	var ws []float64
	s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
		nodes = append(nodes, append([]job.ProcID(nil), node...))
		ws = append(ws, referenceWeight(s, node))
		return true
	})
	idx := make([]int, len(nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if ws[ia] != ws[ib] {
			return ws[ia] < ws[ib]
		}
		return lessNodes(nodes[ia], nodes[ib])
	})
	emitted := 0
	for _, id := range idx {
		if emitted >= k {
			break
		}
		if condensed(nodes[id]) {
			continue
		}
		fn(nodes[id])
		emitted++
	}
}

// referenceWeight is a node's weight as the fallback ranks it: the pair
// costs summed in (i, j < i) order with the pairwise fast path, the
// node memo's weight otherwise.
func referenceWeight(s *Solver, node []job.ProcID) float64 {
	if s.pairW == nil {
		return s.cost.NodeWeight(node)
	}
	var w float64
	for i := 1; i < len(node); i++ {
		for j := 0; j < i; j++ {
			w += s.pairW[int(node[i])-1][int(node[j])-1]
		}
	}
	return w
}

// referenceAnchored is anchoredCandidates written the direct way: every
// greedy pick re-sums each candidate's pair costs against the whole node
// built so far, membership is a mask indexed by process ID, and emitted
// nodes are deduped in a map. It is the reference semantics the
// per-position accumulator is property-tested against.
func referenceAnchored(s *Solver, leader job.ProcID, avail []job.ProcID, k int, emit func(node []job.ProcID) bool) {
	if s.u == 1 {
		emit([]job.ProcID{leader})
		return
	}
	if len(avail) < s.u-1 {
		return
	}
	li := int(leader) - 1
	sorted := append([]job.ProcID(nil), avail...)
	sort.Slice(sorted, func(a, b int) bool {
		sa, sb := s.pairW[li][int(sorted[a])-1], s.pairW[li][int(sorted[b])-1]
		if sa != sb {
			return sa < sb
		}
		return sorted[a] < sorted[b]
	})
	inNode := make([]bool, s.n+1)
	seen := map[string]bool{}
	for _, anchor := range sorted {
		node := []job.ProcID{leader, anchor}
		inNode[leader], inNode[anchor] = true, true
		for len(node) < s.u {
			best := job.ProcID(0)
			bestInc := math.Inf(1)
			for _, x := range sorted {
				if inNode[x] {
					continue
				}
				var inc float64
				for _, y := range node {
					inc += s.pairW[int(y)-1][int(x)-1]
				}
				if inc < bestInc {
					bestInc, best = inc, x
				}
			}
			if best == 0 {
				break
			}
			node = append(node, best)
			inNode[best] = true
		}
		for _, p := range node {
			inNode[p] = false
		}
		if len(node) < s.u {
			continue
		}
		sortNode(node)
		if key := graph.NodeID(node); !seen[key] {
			seen[key] = true
			if !emit(node) || len(seen) >= k {
				return
			}
		}
	}
}

// usesLazy reports whether forEachCandidate hands a level of size
// candidates to the exact lazy k-smallest enumerator.
func usesLazy(s *Solver, size int64) bool {
	return s.pairW != nil && size > smallLevel && s.opts.KPerLevel <= exactLazyMaxK && s.u <= 5
}

// candidateLevel draws a random level of a search: size+1 distinct
// processes of 1..n, the smallest of which leads (as in available, where
// the leader is the smallest unscheduled process) and the rest, in
// ascending order, are available.
func candidateLevel(rng *rand.Rand, n, size int) (job.ProcID, []job.ProcID) {
	picked := rng.Perm(n)[:size+1]
	sort.Ints(picked)
	avail := make([]job.ProcID, size)
	for i, p := range picked[1:] {
		avail[i] = job.ProcID(p + 1)
	}
	return job.ProcID(picked[0] + 1), avail
}

// candidateSizes lists availability sizes for a level test on n
// processes at u: both sides of the smallLevel boundary where the n
// allows, the one-node and no-node edges, and two random sizes.
func candidateSizes(rng *rand.Rand, n, u int) []int {
	b := u - 1 // largest size whose level fits under smallLevel
	for b < n-1 && graph.Binomial(b+1, u-1) <= smallLevel {
		b++
	}
	sizes := []int{u - 2, u - 1, u + 2, b - 1, b, b + 1, b + 2, (b + n - 1) / 2, n - 1,
		u - 1 + rng.Intn(n-u+1), u - 1 + rng.Intn(n-u+1)}
	seen := map[int]bool{}
	out := sizes[:0]
	for _, m := range sizes {
		if m >= 0 && m <= n-1 && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// emittedNodes collects the nodes one generator run emits, copied.
func emittedNodes(run func(fn func(node []job.ProcID))) [][]job.ProcID {
	var out [][]job.ProcID
	run(func(node []job.ProcID) {
		out = append(out, append([]job.ProcID(nil), node...))
	})
	return out
}

// sameNodeSequence fails the test unless got and want emit the same nodes
// in the same order.
func sameNodeSequence(t *testing.T, name string, got, want [][]job.ProcID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: emitted %d nodes; reference emits %d", name, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: node %d is %v; reference emits %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestCandidateGeneratorsMatchReference pins HA*'s candidate generation
// to its reference semantics: the pruned small-level walk, the heap-select
// fallback and the dispatch around them to referenceCandidates, and the
// bound-pruned anchored completion to referenceAnchored. Over random
// levels of both pairwise populations (the smooth one is quantised, so
// equal weights exercise the lessNodes tie-break and equal increments the
// first-position pick), at u = 2, 4 and 8, n from 16 to 240 (238 pads
// with imaginary processes at u = 4 and 8, whose zero pair costs tie
// prefixes and zero the row minima), availability on both sides of
// smallLevel and budgets from 1 to more than the level holds, the emitted
// node sequences must be identical. A PC mix under the SDC oracle with
// condensation covers the heap path's condensed skips, whose count must
// match too.
func TestCandidateGeneratorsMatchReference(t *testing.T) {
	pops := []struct {
		name  string
		build func(n int, m *cache.Machine, seed int64) (*workload.Instance, error)
	}{
		{"pairwise", workload.SyntheticPairwiseInstance},
		{"smooth", workload.SyntheticPairwiseSmoothInstance},
	}
	emitAll := func(fn func([]job.ProcID)) func([]job.ProcID) bool {
		return func(node []job.ProcID) bool { fn(node); return true }
	}
	cases, nodes, ties := 0, 0, 0
	for _, pop := range pops {
		for _, u := range []int{2, 4, 8} {
			mach, err := cache.MachineByCores(u)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{16, 48, 96, 238, 240} {
				seed := int64(100*u + n)
				in, err := pop.build(n, &mach, seed)
				if err != nil {
					t.Fatal(err)
				}
				g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
				s, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: n / u})
				if err != nil {
					t.Fatal(err)
				}
				if s.pairW == nil {
					t.Fatalf("%s n=%d u=%d: pairwise fast path not detected", pop.name, n, u)
				}
				rng := rand.New(rand.NewSource(seed))
				for _, m := range candidateSizes(rng, n, u) {
					leader, avail := candidateLevel(rng, n, m)
					level := graph.Binomial(m, u-1)
					for _, k := range []int{1, 3, n / u, int(min(level, 1<<20)) + 1} {
						name := fmt.Sprintf("%s n=%d u=%d |avail|=%d k=%d", pop.name, n, u, m, k)
						s.opts.KPerLevel = k
						if !usesLazy(s, level) {
							var st Stats
							got := emittedNodes(func(fn func([]job.ProcID)) { s.forEachCandidate(nil, leader, avail, &st, fn) })
							want := emittedNodes(func(fn func([]job.ProcID)) { referenceCandidates(s, leader, avail, &st, fn) })
							sameNodeSequence(t, name, got, want)
							for i := 1; i < len(got); i++ {
								if referenceWeight(s, got[i]) == referenceWeight(s, got[i-1]) {
									ties++
								}
							}
							cases++
							nodes += len(got)
						}

						gotA := emittedNodes(func(fn func([]job.ProcID)) { s.anchoredCandidates(leader, avail, k, emitAll(fn)) })
						wantA := emittedNodes(func(fn func([]job.ProcID)) { referenceAnchored(s, leader, avail, k, emitAll(fn)) })
						sameNodeSequence(t, name+" anchored", gotA, wantA)
						cases++
						nodes += len(gotA)
					}
				}
			}
		}
	}

	condensed := int64(0)
	for seed := int64(1); seed <= 3; seed++ {
		g := mixedGraph(t, 16, 6, 2, 4, seed, degradation.ModePC)
		s, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 8, KPerLevel: 4, Condense: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, m := range candidateSizes(rng, 16, 4) {
			leader, avail := candidateLevel(rng, 16, m)
			for _, k := range []int{1, 3, 4, int(graph.Binomial(m, 3)) + 1} {
				name := fmt.Sprintf("PC mix seed=%d |avail|=%d k=%d", seed, m, k)
				s.opts.KPerLevel = k
				var st, rst Stats
				got := emittedNodes(func(fn func([]job.ProcID)) { s.forEachCandidate(nil, leader, avail, &st, fn) })
				want := emittedNodes(func(fn func([]job.ProcID)) { referenceCandidates(s, leader, avail, &rst, fn) })
				sameNodeSequence(t, name, got, want)
				if st.Condensed != rst.Condensed {
					t.Fatalf("%s: %d condensed; reference condenses %d", name, st.Condensed, rst.Condensed)
				}
				condensed += st.Condensed
				cases++
				nodes += len(got)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two consecutive emitted nodes tied on weight; the tie-break went unexercised")
	}
	if condensed == 0 {
		t.Fatal("condensation never skipped a node on the PC mixes")
	}
	t.Logf("%d cases, %d emitted nodes, %d weight ties, %d condensed skips", cases, nodes, ties, condensed)
}
