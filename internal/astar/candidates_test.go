package astar

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// referenceCandidates is forEachCandidate written the direct way. OA*'s
// whole level (KPerLevel <= 0, no PE classes) is every node in
// graph.ForEachNode's order. In HA*'s branch (KPerLevel > 0), a level
// under smallLevel (or any level without the pairwise fast path) is
// enumerated whole, sorted by (weight, lessNodes) and walked until k
// non-condensed nodes have been emitted. A larger pairwise level gives
// the same sorted prefix, selected by referenceCheapest, where
// forEachCandidate walks it (a budget of at most exactWalkMaxK at
// u ≤ 5), and goes to referenceAnchored otherwise. Condensation keys are
// deduped in a map and every emitted node is a fresh copy, so nothing is
// shared with the solver's scratch. It survives only as the reference
// semantics the generators are property-tested against.
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
	if k <= 0 {
		s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
			if !condensed(node) {
				fn(append([]job.ProcID(nil), node...))
			}
			return true
		})
		return
	}
	if s.pairW != nil && graph.Binomial(len(avail), s.u-1) > smallLevel {
		// The pairwise fast path implies an all-serial batch: nothing
		// condenses on it.
		if k <= exactWalkMaxK && s.u <= 5 {
			referenceCheapest(s, leader, avail, k, fn)
			return
		}
		referenceAnchored(s, leader, avail, k, fn)
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

// referenceCheapest is the prefix of k nodes referenceCandidates' sort
// gives on a level without condensation, selected rather than sorted:
// every node of the level is weighed as the sort weighs it, and the k
// least by (weight, lessNodes) are kept in an insertion-sorted list. It
// serves the pairwise levels above smallLevel, where sorting up to
// C(238, 3) = 2,196,956 nodes a case would make the test several times
// slower.
func referenceCheapest(s *Solver, leader job.ProcID, avail []job.ProcID, k int, fn func(node []job.ProcID)) {
	var best [][]job.ProcID
	var ws []float64
	s.gr.ForEachNode(leader, avail, func(node []job.ProcID) bool {
		w := referenceWeight(s, node)
		i := len(best)
		for i > 0 && (w < ws[i-1] || w == ws[i-1] && lessNodes(node, best[i-1])) {
			i--
		}
		if i < k {
			best = slices.Insert(best, i, append([]job.ProcID(nil), node...))
			ws = slices.Insert(ws, i, w)
			if len(best) > k {
				best, ws = best[:k], ws[:k]
			}
		}
		return true
	})
	for _, node := range best {
		fn(node)
	}
}

// referenceAnchored is anchoredCandidates written the direct way: every
// greedy pick re-sums each candidate's pair costs against the whole node
// built so far, membership is a mask indexed by process ID, and emitted
// nodes are deduped in a map. It is the reference semantics the
// per-position accumulator is property-tested against.
func referenceAnchored(s *Solver, leader job.ProcID, avail []job.ProcID, k int, emit func(node []job.ProcID)) {
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
			emit(node)
			if len(seen) >= k {
				return
			}
		}
	}
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

// nodesOnly adapts a node callback to forEachCandidate's, dropping the
// costs.
func nodesOnly(fn func(node []job.ProcID)) func(node []job.ProcID, costs []float64) {
	return func(node []job.ProcID, _ []float64) { fn(node) }
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

// tenthsPairwiseInstance is a pairwise population built for rounding:
// every interference entry is 0.1, 0.2 or 0.3, none of them exact in
// binary, so nodes of equal weight in exact arithmetic abound and their
// sums, taken in different orders, often differ in the last bit.
func tenthsPairwiseInstance(n int, m *cache.Machine, seed int64) (*workload.Instance, error) {
	rng := rand.New(rand.NewSource(seed))
	bd := job.NewBuilder()
	for i := 0; i < n; i++ {
		bd.AddSerial(fmt.Sprintf("t%04d", i+1))
	}
	b, err := bd.Build(m.Cores)
	if err != nil {
		return nil, err
	}
	nn := b.NumProcs()
	mtx := make([][]float64, nn)
	for i := range mtx {
		mtx[i] = make([]float64, nn)
		for j := range mtx[i] {
			if i != j && !b.Procs[i].Imaginary && !b.Procs[j].Imaginary {
				mtx[i][j] = 0.1 * float64(1+rng.Intn(3))
			}
		}
	}
	o, err := degradation.NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		return nil, err
	}
	return &workload.Instance{Batch: b, Machine: m, Oracle: o}, nil
}

// generatorPops are the pairwise populations the generator tests draw
// levels from.
var generatorPops = []struct {
	name  string
	build func(n int, m *cache.Machine, seed int64) (*workload.Instance, error)
}{
	{"pairwise", workload.SyntheticPairwiseInstance},
	{"smooth", workload.SyntheticPairwiseSmoothInstance},
	{"tenths", tenthsPairwiseInstance},
}

// generatorSolver builds an HA* solver over one generator population,
// failing unless the pairwise fast path is on.
func generatorSolver(t *testing.T, build func(n int, m *cache.Machine, seed int64) (*workload.Instance, error), n, u int, seed int64) *Solver {
	t.Helper()
	mach, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := build(n, &mach, seed)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
	s, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: n / u})
	if err != nil {
		t.Fatal(err)
	}
	if s.pairW == nil {
		t.Fatalf("n=%d u=%d: pairwise fast path not detected", n, u)
	}
	return s
}

// generatorCase checks one level at one budget: forEachCandidate against
// referenceCandidates, and the anchored generator on its own against
// referenceAnchored. It returns the number of cases run, nodes emitted
// and consecutive weight ties among forEachCandidate's nodes.
func generatorCase(t *testing.T, name string, s *Solver, leader job.ProcID, avail []job.ProcID, k int) (cases, nodes, ties int) {
	t.Helper()
	s.opts.KPerLevel = k
	var st Stats
	got := emittedNodes(func(fn func([]job.ProcID)) { s.forEachCandidate(nil, leader, avail, &st, nodesOnly(fn)) })
	want := emittedNodes(func(fn func([]job.ProcID)) { referenceCandidates(s, leader, avail, &st, fn) })
	sameNodeSequence(t, name, got, want)
	for i := 1; i < len(got); i++ {
		if referenceWeight(s, got[i]) == referenceWeight(s, got[i-1]) {
			ties++
		}
	}

	gotA := emittedNodes(func(fn func([]job.ProcID)) { s.anchoredCandidates(leader, avail, k, fn) })
	wantA := emittedNodes(func(fn func([]job.ProcID)) { referenceAnchored(s, leader, avail, k, fn) })
	sameNodeSequence(t, name+" anchored", gotA, wantA)
	return 2, len(got) + len(gotA), ties
}

// TestCandidateGeneratorsMatchReference pins HA*'s candidate generation
// to its reference semantics: the pruned pairwise level walk, the
// heap-select fallback and the dispatch around them to
// referenceCandidates, and the bound-pruned anchored completion to
// referenceAnchored. Over random levels of three pairwise populations
// (the smooth one is quantised, so equal weights exercise the lessNodes
// tie-break and equal increments the first-position pick; the tenths one
// makes equal weights that round differently in different summation
// orders), at u = 2, 4 and 8, n from 16 to 240 (238 pads with imaginary
// processes at u = 4 and 8, whose zero pair costs tie prefixes and zero
// the row minima), availability on both sides of smallLevel up to n-1,
// and budgets from 1 to more than the level holds, exactWalkMaxK and one
// past it among them, the emitted node sequences must be identical. A PC mix under the
// SDC oracle with condensation covers the heap path's condensed skips,
// whose count must match too, and OA*'s whole level both walked from the
// level table and keyed: the same nodes, the same condensed count, and
// table costs equal to Cost.NodeCosts bit for bit. Last, one solver per
// population is driven through many expansions that share two leaders
// while availability shrinks, so each leader's order is reused from the
// anchored levels down through the small ones, at u = 4 and u = 8.
func TestCandidateGeneratorsMatchReference(t *testing.T) {
	cases, nodes, ties := 0, 0, 0
	for _, pop := range generatorPops {
		for _, u := range []int{2, 4, 8} {
			for _, n := range []int{16, 48, 96, 238, 240} {
				seed := int64(100*u + n)
				s := generatorSolver(t, pop.build, n, u, seed)
				rng := rand.New(rand.NewSource(seed))
				for _, m := range candidateSizes(rng, n, u) {
					leader, avail := candidateLevel(rng, n, m)
					level := graph.Binomial(m, u-1)
					for _, k := range []int{1, 3, exactWalkMaxK, exactWalkMaxK + 1, n / u, int(min(level, 1<<20)) + 1} {
						name := fmt.Sprintf("%s n=%d u=%d |avail|=%d k=%d", pop.name, n, u, m, k)
						c, nd, tie := generatorCase(t, name, s, leader, avail, k)
						cases += c
						nodes += nd
						ties += tie
					}
				}
			}
		}
	}

	condensed, tableNodes := int64(0), 0
	for seed := int64(1); seed <= 3; seed++ {
		g := mixedGraph(t, 16, 6, 2, 4, seed, degradation.ModePC)
		ha, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 8, KPerLevel: 4, Condense: true})
		if err != nil {
			t.Fatal(err)
		}
		// OA*'s configuration walks whole levels from the level table.
		oa, err := NewSolver(g, Options{H: HPerProc, Condense: true})
		if err != nil {
			t.Fatal(err)
		}
		if ha.levels != nil || oa.levels == nil {
			t.Fatalf("seed %d: level table built for HA* (%v) or missing for OA* (%v)", seed, ha.levels != nil, oa.levels == nil)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, m := range candidateSizes(rng, 16, 4) {
			leader, avail := candidateLevel(rng, 16, m)
			for _, k := range []int{0, 1, 3, 4, int(graph.Binomial(m, 3)) + 1} {
				// k = 0 runs on both solvers: oa reads the level table;
				// ha, built for k > 0 and so without one, keys every
				// candidate as a graph above the table's budget does.
				for _, s := range []*Solver{oa, ha} {
					if s == oa && k > 0 {
						continue
					}
					name := fmt.Sprintf("PC mix seed=%d |avail|=%d k=%d table=%v", seed, m, k, s == oa)
					s.opts.KPerLevel = k
					var st, rst Stats
					var costs [][]float64
					got := emittedNodes(func(fn func([]job.ProcID)) {
						s.forEachCandidate(nil, leader, avail, &st, func(node []job.ProcID, c []float64) {
							if (c != nil) != (s == oa) {
								t.Fatalf("%s: node %v came with costs %v", name, node, c)
							}
							costs = append(costs, append([]float64(nil), c...))
							fn(node)
						})
					})
					want := emittedNodes(func(fn func([]job.ProcID)) { referenceCandidates(s, leader, avail, &rst, fn) })
					sameNodeSequence(t, name, got, want)
					if st.Condensed != rst.Condensed {
						t.Fatalf("%s: %d condensed; reference condenses %d", name, st.Condensed, rst.Condensed)
					}
					if s == oa {
						for i, node := range got {
							want := s.cost.NodeCosts(nil, node)
							for j := range want {
								if math.Float64bits(costs[i][j]) != math.Float64bits(want[j]) {
									t.Fatalf("%s: node %v costs %v from the table; NodeCosts gives %v", name, node, costs[i], want)
								}
							}
						}
						tableNodes += len(got)
					}
					condensed += st.Condensed
					cases++
					nodes += len(got)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two consecutive emitted nodes tied on weight; the tie-break went unexercised")
	}
	if condensed == 0 || tableNodes == 0 {
		t.Fatalf("on the PC mixes condensation skipped %d nodes and the level table emitted %d; want both", condensed, tableNodes)
	}

	// Order reuse: one solver per population and size is driven through
	// expansions under the same two leaders while their availability
	// shrinks, as a search does. Each leader's order is built on its
	// first expansion and only filtered after that, down through the
	// small levels (at u = 8 every level from 17 available processes
	// down is walked whole).
	reuse := 0
	for _, pop := range generatorPops {
		for _, c := range []struct{ n, u int }{{240, 4}, {96, 8}, {238, 8}} {
			seed := int64(7*c.n + c.u)
			s := generatorSolver(t, pop.build, c.n, c.u, seed)
			rng := rand.New(rand.NewSource(seed))
			// Leaders 1 and 2 share the rest of the batch; each step
			// schedules u-1 random processes, as an expansion would.
			rest := make([]job.ProcID, 0, c.n-2)
			for p := 3; p <= c.n; p++ {
				rest = append(rest, job.ProcID(p))
			}
			for step := 0; ; step++ {
				for _, leader := range []job.ProcID{1, 2} {
					avail := make([]job.ProcID, 0, len(rest)+1)
					if leader == 1 {
						avail = append(avail, 2)
					}
					avail = append(avail, rest...)
					for _, k := range []int{c.n / c.u, exactWalkMaxK + 1} {
						name := fmt.Sprintf("%s n=%d u=%d step=%d leader=%d |avail|=%d k=%d", pop.name, c.n, c.u, step, leader, len(avail), k)
						cs, nd, _ := generatorCase(t, name, s, leader, avail, k)
						cases += cs
						nodes += nd
						reuse++
					}
				}
				if len(rest) == 0 {
					break
				}
				for i := 0; i < c.u-1 && len(rest) > 0; i++ {
					j := rng.Intn(len(rest))
					rest = append(rest[:j], rest[j+1:]...)
				}
			}
			for _, leader := range []job.ProcID{1, 2} {
				if s.scr.orders[leader-1] == nil {
					t.Fatalf("%s n=%d u=%d: leader %d never built its order", pop.name, c.n, c.u, leader)
				}
			}
		}
	}
	t.Logf("%d cases (%d order-reuse expansions), %d emitted nodes, %d weight ties, %d condensed skips", cases, reuse, nodes, ties, condensed)
}
