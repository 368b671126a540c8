package astar

import (
	"fmt"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// syntheticGraphTB is syntheticGraph for benchmarks too (testing.TB).
func syntheticGraphTB(tb testing.TB, n, u int, seed int64, mode degradation.Mode) *graph.Graph {
	tb.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := workload.SyntheticSerialInstance(n, &m, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return graph.New(in.Cost(mode), in.Patterns)
}

// This file is the micro-benchmark suite of the allocation-free hot path:
// child construction + key packing + dismissal lookup in isolation, and
// AllocsPerRun guards pinning the steady-state allocation count of a
// child dismissed by admitChild (the overwhelmingly common fate under
// Theorem-1 dismissal) at zero. The guards are exact counts and run in the tier-1
// suite; the benchmarks run with
//
//	go test ./internal/astar/ -bench HotPath -benchmem
//
// End-to-end solver timings live in perfbench (BENCHMARK.json).

// hotPathSolver builds a prepared mid-size serial solver plus a root
// element and one candidate node, without running a search. pairwise
// selects the additive-pairwise oracle (the Fig. 9/13 regime, where the
// child distance comes straight from the interference matrix); otherwise
// the SDC oracle's node costs come from the Cost's node memo.
func hotPathSolver(tb testing.TB, n, u int, pairwise bool) (*Solver, *element, []job.ProcID) {
	tb.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		tb.Fatal(err)
	}
	var g *graph.Graph
	if pairwise {
		in, err := workload.SyntheticPairwiseInstance(n, &m, 17)
		if err != nil {
			tb.Fatal(err)
		}
		g = graph.New(in.Cost(degradation.ModePC), in.Patterns)
	} else {
		g = syntheticGraphTB(tb, n, u, 17, degradation.ModePC)
	}
	sv, err := NewSolver(g, Options{H: HPerProc})
	if err != nil {
		tb.Fatal(err)
	}
	sv.table = newGTable(sv.keyStride)
	root := sv.rootElement()
	node := make([]job.ProcID, 0, u)
	for p := 1; p <= u; p++ {
		node = append(node, job.ProcID(p))
	}
	return sv, root, node
}

// primeDismissal warms w's pool and records the hot-path child's key in
// t, so that every later copy of that child is dismissed.
func primeDismissal(w *Solver, t bestGTable, root *element, node []job.ProcID) {
	warm := w.makeChild(root, node, nil)
	t.admit(warm, -1)
	w.recycle(warm)
}

// dismissChild builds the hot-path child on w and sends it through
// admitChild, the admission both best-first engines run, against a table
// primeDismissal primed. The caller traces and recycles the child.
func dismissChild(tb testing.TB, w *Solver, t bestGTable, inc *incumbent, root *element, node []job.ProcID, st *Stats) (*element, DismissReason) {
	c := w.makeChild(root, node, nil)
	_, r, ok := w.admitChild(t, inc, c, st)
	if ok {
		tb.Fatal("hot-path child admitted; the guard measures a dismissed one")
	}
	return c, r
}

// BenchmarkHotPathMakeChild measures one pooled child construction
// (set copy, Eq. 13 distance, key packing) plus its dismissal probe and
// recycling — the per-candidate cost of the search inner loop.
func BenchmarkHotPathMakeChild(b *testing.B) {
	sv, root, node := hotPathSolver(b, 120, 4, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sv.makeChild(root, node, nil)
		_, _ = sv.table.probe(c)
		sv.recycle(c)
	}
}

// BenchmarkHotPathPackKey measures dismissal-key packing alone.
func BenchmarkHotPathPackKey(b *testing.B) {
	sv, root, _ := hotPathSolver(b, 960, 4, true)
	buf := make([]uint64, 0, sv.keyStride)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sv.packKey(buf[:0], root.set, root.jobMax)
	}
}

// BenchmarkHotPathTableInsert measures the open-addressing insert path,
// growth included, against fresh tables.
func BenchmarkHotPathTableInsert(b *testing.B) {
	sv, root, node := hotPathSolver(b, 120, 4, true)
	c := sv.makeChild(root, node, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := newGTable(sv.keyStride)
		key := c.keyWords
		kc := append([]uint64(nil), key...)
		for j := 0; j < 256; j++ {
			kc[0] = uint64(j) << 1 // distinct sets, bit 0 unused
			h := hashKeyWords(kc)
			if t.find(kc, h) < 0 {
				t.insert(kc, h, float64(j), nil)
			}
		}
	}
}

// BenchmarkHotPathSolveOAStar is the end-to-end anchor: a mid-size OA*
// solve whose allocs/op the pooled hot path holds near-constant in n.
func BenchmarkHotPathSolveOAStar(b *testing.B) {
	sv, _, _ := hotPathSolver(b, 16, 4, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sv.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDismissedChildStaysAllocationFree is the hot-path allocation guard:
// once the pool and the node memo are warm, building a child, dismissing
// it through admitChild on the sequential gTable and recycling it must
// not allocate, on either oracle.
func TestDismissedChildStaysAllocationFree(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		n, u     int
		pairwise bool
		budget   float64
	}{
		// Additive-pairwise oracle (Fig. 9/13 regime): zero allocations.
		{"pairwise-n120-u4", 120, 4, true, 0},
		{"pairwise-n960-u4", 960, 4, true, 0},
		// SDC oracle: node costs are a node-memo hit, copied into
		// solver scratch.
		{"memoized-n120-u4", 120, 4, false, 0},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			sv, root, node := hotPathSolver(t, cfg.n, cfg.u, cfg.pairwise)
			// Warm the pool (and the node memo): the first child
			// allocates its backing storage, every later one reuses it.
			primeDismissal(sv, sv.table, root, node)
			inc := sv.newIncumbent()
			var stats Stats
			allocs := testing.AllocsPerRun(200, func() {
				c, _ := dismissChild(t, sv, sv.table, inc, root, node, &stats)
				sv.recycle(c)
			})
			if allocs > cfg.budget {
				t.Fatalf("dismissed child costs %.1f allocs; budget is %.0f", allocs, cfg.budget)
			}
		})
	}
}

// TestPoolReuseDominatesOnSolve checks the Stats surface: on a real solve
// the pool must serve the bulk of elements from the free list and the key
// table must stay under its 3/4 growth ceiling.
func TestPoolReuseDominatesOnSolve(t *testing.T) {
	g := syntheticGraphTB(t, 14, 2, 5, degradation.ModePC)
	res := solveWith(t, g, Options{H: HPerProc, UseIncumbent: true})
	st := res.Stats
	if st.ElemAllocated == 0 || st.ElemReused == 0 {
		t.Fatalf("alloc stats not populated: %+v", st)
	}
	if st.ElemReused < st.ElemAllocated {
		t.Errorf("reuse (%d) should dominate fresh allocation (%d) on a dismissal-heavy solve",
			st.ElemReused, st.ElemAllocated)
	}
	if st.KeyTableEntries <= 0 || st.KeyTableLoad <= 0 || st.KeyTableLoad >= 0.75 {
		t.Errorf("key table stats out of range: entries=%d load=%.3f", st.KeyTableEntries, st.KeyTableLoad)
	}
}

// TestCondensedCandidateAllocationFree is the condensation allocation
// guard (§III-E). On a warm solver over a six-PC-job mix of 16
// processes, a whole level-1 expansion (455 candidates, most of them
// condensed) reads every class and cost from the level table and
// allocates nothing. Above the table's budget (48 processes, C(48, 4)
// nodes) candidates are keyed instead, and keying and deduping one
// touches no heap.
func TestCondensedCandidateAllocationFree(t *testing.T) {
	g := mixedGraph(t, 16, 6, 2, 4, 1, degradation.ModePC)
	sv, err := NewSolver(g, Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	if sv.levels == nil {
		t.Fatal("no level table for a 16-process OA* solver")
	}
	root := sv.rootElement()
	avail := sv.available(root, 1)
	var stats Stats
	candidates := 0
	expand := func() {
		sv.forEachCandidate(root, 1, avail, &stats, func([]job.ProcID, []float64) { candidates++ })
	}
	expand() // warm: sizes the walk's positions and the class stamps
	if total := int64(candidates) + stats.Condensed; total != 455 || stats.Condensed <= int64(candidates) {
		t.Fatalf("level 1: %d attempted + %d condensed; want 455 with most condensed", candidates, stats.Condensed)
	}
	if allocs := testing.AllocsPerRun(20, expand); allocs != 0 {
		t.Errorf("a condensed level-1 expansion costs %.1f allocs; want 0", allocs)
	}

	big, err := NewSolver(mixedGraph(t, 48, 6, 2, 4, 1, degradation.ModePC), Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.levels != nil {
		t.Fatal("a 48-process graph got a level table; its keying path went untested")
	}
	bigRoot := big.rootElement()
	big.forEachCandidate(bigRoot, 1, big.available(bigRoot, 1), &stats, func([]job.ProcID, []float64) {})
	node := []job.ProcID{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(200, func() {
		big.scr.condSeen.reset()
		if !big.scr.condSeen.add(big.gr.AppendCondenseKey(big.scr.condKeyBuf[:0], node)) ||
			big.scr.condSeen.add(big.gr.AppendCondenseKey(big.scr.condKeyBuf[:0], node)) {
			t.Fatal("dedup set lost a key")
		}
	})
	if allocs != 0 {
		t.Errorf("keying and deduping a candidate costs %.1f allocs; want 0", allocs)
	}
}

// TestHAStarCandidatesAllocationFree is the HA* candidate-generation
// allocation guard, on a warm solver in solve-large's configuration
// (pairwise oracle, n = 240, quad-core, HA*'s large-batch options with
// k = n/u = 60). Once the leader's order exists, neither an anchored
// expansion (239 available) nor a small-level expansion (39 available:
// 9,139 nodes walked into a k-slot heap) allocates, and neither does the
// walk an explicit budget of 12 selects at 239 available, above
// smallLevel.
func TestHAStarCandidatesAllocationFree(t *testing.T) {
	g := pairwiseGraphTB(t, 240, 4, 1)
	sv, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: 60})
	if err != nil {
		t.Fatal(err)
	}
	root := sv.rootElement()
	for _, c := range []struct {
		name  string
		avail int
		k     int
	}{
		{"anchored", 239, 60},
		{"small-level", 39, 60},
		{"walk-above-small-level", 239, 12},
	} {
		avail := make([]job.ProcID, 0, c.avail)
		for p := 2; p <= c.avail+1; p++ {
			avail = append(avail, job.ProcID(p))
		}
		sv.opts.KPerLevel = c.k
		var stats Stats
		emitted := 0
		expand := func() {
			emitted = 0
			sv.forEachCandidate(root, 1, avail, &stats, func([]job.ProcID, []float64) { emitted++ })
		}
		expand() // warm: builds leader 1's order and sizes the generator's scratch
		if emitted != c.k {
			t.Fatalf("%s: expansion emitted %d candidates; want k = %d", c.name, emitted, c.k)
		}
		if allocs := testing.AllocsPerRun(20, expand); allocs != 0 {
			t.Errorf("%s: an expansion costs %.1f allocs; want 0", c.name, allocs)
		}
	}
}

// TestBeamSelectionAllocationFree guards the beam's survivor selection:
// on a warm solver in solve-large's configuration, picking one depth's
// 16 survivors from its table (the root's 60 children) allocates
// nothing.
func TestBeamSelectionAllocationFree(t *testing.T) {
	g := pairwiseGraphTB(t, 240, 4, 1)
	sv, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: 60})
	if err != nil {
		t.Fatal(err)
	}
	sv.table = newGTable(sv.keyStride)
	root := sv.rootElement()
	var stats Stats
	sv.forEachCandidate(root, 1, sv.available(root, 1), &stats, func(node []job.ProcID, costs []float64) {
		child := sv.makeChild(root, node, costs)
		child.h = sv.heuristic(child)
		sv.table.insert(child.keyWords, child.hash, child.g, child)
	})
	if sv.table.count != 60 {
		t.Fatalf("depth table holds %d children; want 60", sv.table.count)
	}
	trimmed := 0
	sel := func() {
		trimmed = 0
		sv.beamSelect(sv.table.elems, 1.2, func(*element) { trimmed++ })
	}
	sel() // warm: sizes the survivor buffers
	if trimmed != 44 {
		t.Fatalf("selection trimmed %d of 60; want 44", trimmed)
	}
	if allocs := testing.AllocsPerRun(50, sel); allocs != 0 {
		t.Errorf("selecting a depth's survivors costs %.1f allocs; want 0", allocs)
	}
}

// TestClassCandidatesAllocationFree guards the class enumeration of
// condensed PE mixes (Fig. 6): on a warm solver over three PE jobs of
// four ranks and four serial jobs, a whole level-1 expansion — class
// table, enumeration and every emitted node — allocates nothing.
func TestClassCandidatesAllocationFree(t *testing.T) {
	m := cache.QuadCore
	spec := workload.NewSpec()
	for i := 0; i < 3; i++ {
		spec.AddPE(workload.SyntheticProgram(fmt.Sprintf("pe%d", i), randFor(int64(20+i))), 4)
	}
	for i := 0; i < 4; i++ {
		spec.AddSerial(workload.SyntheticProgram(fmt.Sprintf("s%d", i), randFor(int64(30+i))))
	}
	in, err := spec.Build(&m)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSolver(graph.New(in.Cost(degradation.ModePE), in.Patterns), Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	root := sv.rootElement()
	avail := sv.available(root, 1)
	var stats Stats
	candidates := 0
	expand := func() {
		candidates = 0
		sv.forEachCandidate(root, 1, avail, &stats, func([]job.ProcID, []float64) { candidates++ })
	}
	expand() // warm: sizes the class table and the dedup set
	if candidates == 0 {
		t.Fatal("level 1 produced no class candidates")
	}
	if allocs := testing.AllocsPerRun(20, expand); allocs != 0 {
		t.Errorf("a class-enumerated level-1 expansion costs %.1f allocs; want 0", allocs)
	}
}

// TestHStrategy2AllocationFree pins Strategy 2 at 0 allocations per warm
// call: prepare builds the level minima and their order, so a child's h
// sums the prepared order with no slice and no sort.
func TestHStrategy2AllocationFree(t *testing.T) {
	sv, err := NewSolver(syntheticGraphTB(t, 16, 4, 17, degradation.ModePC), Options{H: HStrategy2})
	if err != nil {
		t.Fatal(err)
	}
	child := sv.makeChild(sv.rootElement(), []job.ProcID{1, 5, 9, 13}, nil)
	want := sv.hStrategy2(child)
	if want <= 0 {
		t.Fatalf("h = %v; the guard needs a child with levels left to bound", want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if sv.hStrategy2(child) != want {
			t.Fatal("h changed between calls")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hStrategy2 costs %.1f allocs; want 0", allocs)
	}
}

// TestHStrategy1AllocationFree pins Strategy 1 at 0 allocations per
// call: prepare builds each leader's prefix sums of the smallest node
// weights above it, so a child's h is one table read with no merge heap.
func TestHStrategy1AllocationFree(t *testing.T) {
	sv, err := NewSolver(syntheticGraphTB(t, 16, 4, 17, degradation.ModePC), Options{H: HStrategy1})
	if err != nil {
		t.Fatal(err)
	}
	child := sv.makeChild(sv.rootElement(), []job.ProcID{1, 5, 9, 13}, nil)
	want := sv.hStrategy1(child)
	if want <= 0 {
		t.Fatalf("h = %v; the guard needs a child with levels left to bound", want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if sv.hStrategy1(child) != want {
			t.Fatal("h changed between calls")
		}
	})
	if allocs != 0 {
		t.Fatalf("hStrategy1 costs %.1f allocs; want 0", allocs)
	}
}
