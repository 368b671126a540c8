package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cosched/internal/comm"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

// pairOracle builds a tiny pairwise instance for graph tests.
func pairInstance(t *testing.T, n, u int, scale float64) (*degradation.Cost, *job.Batch) {
	t.Helper()
	bd := job.NewBuilder()
	for i := 0; i < n; i++ {
		bd.AddSerial("s")
	}
	b, err := bd.Build(u)
	if err != nil {
		t.Fatal(err)
	}
	nn := b.NumProcs()
	m := make([][]float64, nn)
	for i := range m {
		m[i] = make([]float64, nn)
		for j := range m[i] {
			if i != j {
				m[i][j] = scale * float64(i+1) * float64(j+1)
			}
		}
	}
	o, err := degradation.NewPairwiseOracle(b, m, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return degradation.NewCost(b, o, degradation.ModePC), b
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {6, 1, 6}, {6, 0, 1}, {6, 6, 1}, {6, 7, 0}, {5, -1, 0},
		{23, 3, 1771}, {55, 3, 26235}, {99, 3, 156849},
	}
	for _, tc := range cases {
		if got := Binomial(tc.n, tc.k); got != tc.want {
			t.Errorf("Binomial(%d,%d) = %d; want %d", tc.n, tc.k, got, tc.want)
		}
	}
	// The paper's §IV example: C(91,3) = 121485 valid nodes for n=100,
	// u=4, k=2.
	if got := Binomial(91, 3); got != 121485 {
		t.Errorf("Binomial(91,3) = %d; want 121485 (paper's example)", got)
	}
	// saturation
	if got := Binomial(1000, 500); got != int64(1)<<62 {
		t.Errorf("Binomial(1000,500) = %d; want saturated", got)
	}
}

func TestForEachNodeEnumeratesAllCombinations(t *testing.T) {
	c, _ := pairInstance(t, 6, 3, 0.01)
	g := New(c, nil)
	var nodes [][]job.ProcID
	avail := []job.ProcID{2, 3, 4, 5, 6}
	g.ForEachNode(1, avail, func(node []job.ProcID) bool {
		nodes = append(nodes, append([]job.ProcID(nil), node...))
		return true
	})
	if got := len(nodes); got != 10 { // C(5,2)
		t.Fatalf("enumerated %d nodes; want 10", got)
	}
	seen := map[string]bool{}
	for _, nd := range nodes {
		if nd[0] != 1 {
			t.Errorf("node %v not led by 1", nd)
		}
		if !(nd[0] < nd[1] && nd[1] < nd[2]) {
			t.Errorf("node %v not ascending", nd)
		}
		seen[NodeID(nd)] = true
	}
	if len(seen) != 10 {
		t.Errorf("duplicate nodes in enumeration: %d unique", len(seen))
	}
}

func TestForEachNodeEarlyStop(t *testing.T) {
	c, _ := pairInstance(t, 6, 3, 0.01)
	g := New(c, nil)
	count := 0
	g.ForEachNode(1, []job.ProcID{2, 3, 4, 5, 6}, func(node []job.ProcID) bool {
		count++
		return count < 4
	})
	if count != 4 {
		t.Errorf("enumeration ran %d times; want 4", count)
	}
}

func TestForEachNodeSingleCore(t *testing.T) {
	c, _ := pairInstance(t, 4, 1, 0.01)
	g := New(c, nil)
	var got [][]job.ProcID
	g.ForEachNode(2, nil, func(node []job.ProcID) bool {
		got = append(got, append([]job.ProcID(nil), node...))
		return true
	})
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 2 {
		t.Errorf("u=1 enumeration = %v; want [[2]]", got)
	}
}

func TestForEachNodeInsufficientAvail(t *testing.T) {
	c, _ := pairInstance(t, 6, 3, 0.01)
	g := New(c, nil)
	called := false
	g.ForEachNode(5, []job.ProcID{6}, func(node []job.ProcID) bool {
		called = true
		return true
	})
	if called {
		t.Error("enumeration produced nodes from an undersized pool")
	}
}

func TestLevelStats(t *testing.T) {
	c, _ := pairInstance(t, 6, 2, 0.01)
	g := New(c, nil)
	ls, ok := g.LevelStats(1)
	if !ok {
		t.Fatal("level 1 not enumerable")
	}
	if got := len(ls.SortedWeights); got != 5 { // nodes <1,2>..<1,6>
		t.Fatalf("level 1 size = %d; want 5", got)
	}
	// weights ascending
	for i := 1; i < len(ls.SortedWeights); i++ {
		if ls.SortedWeights[i] < ls.SortedWeights[i-1] {
			t.Fatal("weights not sorted")
		}
	}
	// Min is the weight of <1,2>: d(1|2)+d(2|1) = 0.01*(1*2 + 2*1)
	want := 0.01 * 4
	if math.Abs(ls.Min()-want) > 1e-12 {
		t.Errorf("level 1 min = %v; want %v", ls.Min(), want)
	}
}

func TestLevelEnumerableBudget(t *testing.T) {
	c, _ := pairInstance(t, 12, 4, 0.001)
	g := New(c, nil)
	g.EnumLimit = 10 // C(11,3)=165 exceeds it
	if g.LevelEnumerable(1) {
		t.Error("level 1 reported enumerable under a tiny budget")
	}
	if _, ok := g.LevelStats(1); ok {
		t.Error("LevelStats succeeded over budget")
	}
	if g.LevelEnumerable(10) != true { // C(2,3)=0 nodes
		t.Error("trailing level should be enumerable")
	}
}

// condenseKeyRef is the reference semantics of the condensation key,
// written the direct way as a byte string: serial and padding IDs in node
// order, then per parallel job in job-ID order a marker, the job ID, its
// rank count and its communication property. AppendCondenseKey's words
// must be equal exactly when these strings are.
func condenseKeyRef(g *Graph, patterns map[job.JobID]*comm.Pattern, node []job.ProcID) string {
	b := g.Batch
	type parEntry struct {
		j     job.JobID
		ranks []int
	}
	var pars []parEntry
	key := make([]byte, 0, 4*len(node))
	appendInt := func(v int) {
		key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for _, p := range node {
		j := b.JobOf(p)
		if j == nil || j.Kind == job.Serial {
			appendInt(int(p))
			continue
		}
		rank := b.Proc(p).Rank
		found := false
		for i := range pars {
			if pars[i].j == j.ID {
				pars[i].ranks = append(pars[i].ranks, rank)
				found = true
				break
			}
		}
		if !found {
			pars = append(pars, parEntry{j: j.ID, ranks: []int{rank}})
		}
	}
	sort.Slice(pars, func(i, k int) bool { return pars[i].j < pars[k].j })
	for _, pe := range pars {
		appendInt(-1) // marker separating serial IDs from job entries
		appendInt(int(pe.j))
		appendInt(len(pe.ranks))
		if pt := patterns[pe.j]; pt != nil {
			for _, c := range propertyRef(pt, pe.ranks) {
				appendInt(c)
			}
		}
	}
	return string(key)
}

// propertyRef is the communication property of a job inside one node
// (§III-E): for each decomposition dimension, the number of halo
// exchanges the job's ranks inside the node perform with ranks outside it.
func propertyRef(pt *comm.Pattern, ranksInNode []int) []int {
	in := make(map[int]bool, len(ranksInNode))
	for _, r := range ranksInNode {
		in[r] = true
	}
	counts := make([]int, len(pt.Dims))
	for _, r := range ranksInNode {
		for _, nb := range pt.Neighbors(r) {
			if !in[nb.Rank] {
				counts[nb.Dim]++
			}
		}
	}
	return counts
}

// condenseKey returns a node's word key as a comparable string.
func condenseKey(g *Graph, node ...int) string {
	ids := make([]job.ProcID, len(node))
	for i, p := range node {
		ids[i] = job.ProcID(p)
	}
	return fmt.Sprint(g.AppendCondenseKey(nil, ids))
}

// jobWord returns the condensation word of the first parallel job in a
// node's key, decoded into its rank count and per-dimension external
// exchange counts.
func jobWord(t *testing.T, g *Graph, node ...job.ProcID) (ranks int, exchanges [3]int) {
	t.Helper()
	for _, w := range g.AppendCondenseKey(nil, node) {
		if w&condTag != 0 {
			return int(w >> 24 & 0xff), [3]int{int(w >> 16 & 0xff), int(w >> 8 & 0xff), int(w & 0xff)}
		}
	}
	t.Fatalf("key of %v holds no parallel job word", node)
	return 0, exchanges
}

func TestCondenseKeySerialNodesDistinct(t *testing.T) {
	c, _ := pairInstance(t, 6, 2, 0.01)
	g := New(c, nil)
	if condenseKey(g, 1, 2) == condenseKey(g, 1, 3) {
		t.Error("distinct serial nodes share a condensation key")
	}
}

// fig4Graph is the paper's Fig. 4 instance: a 9-process PC job on a 3x3
// grid (processes 1..9 are ranks 0..8) plus one serial job (process 10),
// on dual-core machines.
func fig4Graph(t *testing.T, pt *comm.Pattern) *Graph {
	t.Helper()
	bd := job.NewBuilder()
	pcid := bd.AddPC("par", 9)
	bd.AddSerial("ser")
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	n := b.NumProcs()
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
	}
	patterns := map[job.JobID]*comm.Pattern{pcid: pt}
	o, err := degradation.NewPairwiseOracle(b, mtx, patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(degradation.NewCost(b, o, degradation.ModePC), patterns)
}

func TestCondenseKeyMatchesPaperFig4(t *testing.T) {
	g := fig4Graph(t, comm.Grid2D(3, 3, 1, 1))
	key := func(a, b int) string { return condenseKey(g, a, b) }
	// Fig. 4: <1,3>, <1,7>, <1,9> condense (property (2,2)); <1,2> does not.
	if key(1, 3) != key(1, 7) || key(1, 3) != key(1, 9) {
		t.Error("<1,3>, <1,7>, <1,9> should condense")
	}
	if key(1, 2) == key(1, 3) {
		t.Error("<1,2> must not condense with <1,3>")
	}
	// <1,4> has property (2,1) and <1,2> has (1,2): distinct.
	if key(1, 2) == key(1, 4) {
		t.Error("<1,2> must not condense with <1,4>")
	}
	// A serial member distinguishes nodes: <1,10> unique.
	if key(1, 10) == key(1, 3) {
		t.Error("serial node condensed with parallel node")
	}
	// <1,5> and <1,6>: properties (3,3) and (2,3) per Fig. 4: distinct.
	if key(1, 5) == key(1, 6) {
		t.Error("<1,5> must not condense with <1,6>")
	}
}

// TestCondenseKeyPropertyMatchesPaperFig4 reads the communication
// properties Fig. 4 lists straight out of the job words.
func TestCondenseKeyPropertyMatchesPaperFig4(t *testing.T) {
	g := fig4Graph(t, comm.Grid2D(3, 3, 1, 1))
	for _, tc := range []struct {
		other job.ProcID
		x, y  int
	}{
		{2, 1, 2}, // <1,2>: one x-direction exchange (p2-p3), two y (p1-p4, p2-p5)
		{3, 2, 2},
		{5, 3, 3},
		{7, 2, 2}, // <1,7> and <1,9> condense with <1,3>
		{9, 2, 2},
	} {
		ranks, ex := jobWord(t, g, 1, tc.other)
		if ranks != 2 || ex != [3]int{tc.x, tc.y, 0} {
			t.Errorf("<1,%d>: %d ranks, property %v; want 2 ranks, (%d,%d)", tc.other, ranks, ex[:2], tc.x, tc.y)
		}
	}
}

// TestCondenseKeyNilPatternCountsNothing: a PC job without a pattern
// communicates with nobody, so only its rank count tells nodes apart.
func TestCondenseKeyNilPatternCountsNothing(t *testing.T) {
	g := fig4Graph(t, nil)
	if ranks, ex := jobWord(t, g, 1, 5); ranks != 2 || ex != [3]int{} {
		t.Errorf("<1,5> without a pattern: %d ranks, property %v; want 2, none", ranks, ex)
	}
	if condenseKey(g, 1, 2) != condenseKey(g, 1, 5) {
		t.Error("without a pattern, <1,2> and <1,5> should condense")
	}
}

// randomMix builds a batch of random serial, PE and PC jobs on u-core
// machines, padded to a multiple of u; PC jobs get a random 1D, 2D or 3D
// pattern, or none.
func randomMix(t *testing.T, rng *rand.Rand, u, maxProcs int) (*Graph, map[job.JobID]*comm.Pattern) {
	t.Helper()
	bd := job.NewBuilder()
	patterns := map[job.JobID]*comm.Pattern{}
	for bd.NumProcs() < maxProcs-1 {
		left := maxProcs - bd.NumProcs()
		switch rng.Intn(3) {
		case 0:
			bd.AddSerial("s")
		case 1:
			bd.AddPE("pe", 1+rng.Intn(min(left, 6)))
		default:
			var pt *comm.Pattern
			switch d := rng.Intn(4); {
			case d == 0 || left < 4:
				pt = comm.Grid1D(2+rng.Intn(min(left, 6)-1), 1)
			case d == 1:
				pt = comm.Grid2D(2, 1+rng.Intn(left/2), 1, 2)
			case d == 2 && left >= 8:
				pt = comm.Grid3D(2, 2, 1+rng.Intn(min(left/4, 3)), 1, 2, 3)
			}
			if pt == nil {
				bd.AddPC("pc", 1+rng.Intn(min(left, 6)))
			} else {
				patterns[bd.AddPC("pc", pt.NumRanks())] = pt
			}
		}
	}
	b, err := bd.Build(u)
	if err != nil {
		t.Fatal(err)
	}
	n := b.NumProcs()
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
	}
	o, err := degradation.NewPairwiseOracle(b, mtx, patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(degradation.NewCost(b, o, degradation.ModePC), patterns), patterns
}

// checkKeysMatchReference asserts that, over the given nodes, two word
// keys are equal exactly when their reference string keys are.
func checkKeysMatchReference(t *testing.T, g *Graph, patterns map[job.JobID]*comm.Pattern, forEach func(fn func(node []job.ProcID))) {
	t.Helper()
	refToWord := map[string]string{}
	wordToRef := map[string]string{}
	forEach(func(node []job.ProcID) {
		words := g.AppendCondenseKey(nil, node)
		if len(words) != len(node) {
			t.Fatalf("key of %v has %d words; want %d", node, len(words), len(node))
		}
		ref, w := condenseKeyRef(g, patterns, node), fmt.Sprint(words)
		if prev, ok := refToWord[ref]; ok && prev != w {
			t.Fatalf("node %v: equal reference keys, different word keys %s and %s", node, prev, w)
		}
		if prev, ok := wordToRef[w]; ok && prev != ref {
			t.Fatalf("node %v: word key %s shared by different reference keys", node, w)
		}
		refToWord[ref], wordToRef[w] = w, ref
	})
}

// TestCondenseKeyMatchesReference is the equivalence property test: on
// the first levels of random serial/PE/PC mixes at u = 2, 4 and 8, word
// keys collide exactly when the reference string keys do. Each node is
// also keyed in reverse order, where its jobs appear against job-ID order.
func TestCondenseKeyMatchesReference(t *testing.T) {
	rev := make([]job.ProcID, 8)
	for _, u := range []int{2, 4, 8} {
		maxProcs := map[int]int{2: 24, 4: 18, 8: 15}[u]
		for seed := int64(1); seed <= 10; seed++ {
			g, patterns := randomMix(t, rand.New(rand.NewSource(seed*10+int64(u))), u, maxProcs)
			n := g.N()
			for leader := 1; leader <= 3 && leader+u-1 <= n; leader++ {
				avail := make([]job.ProcID, 0, n)
				for p := leader + 1; p <= n; p++ {
					avail = append(avail, job.ProcID(p))
				}
				checkKeysMatchReference(t, g, patterns, func(fn func([]job.ProcID)) {
					g.ForEachNode(job.ProcID(leader), avail, func(node []job.ProcID) bool {
						fn(node)
						r := append(rev[:0], node...)
						slices.Reverse(r)
						fn(r)
						return true
					})
				})
			}
		}
	}
}

// TestCondenseKeyPackingExtremes fills an 8-core node with ranks of one
// 3D PC job: the rank count reaches u and one dimension's exchange count
// reaches 2u, the largest values the job word's fields must hold.
func TestCondenseKeyPackingExtremes(t *testing.T) {
	bd := job.NewBuilder()
	pcid := bd.AddPC("cube", 27)
	b, err := bd.Build(8)
	if err != nil {
		t.Fatal(err)
	}
	n := b.NumProcs()
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
	}
	patterns := map[job.JobID]*comm.Pattern{pcid: comm.Grid3D(3, 3, 3, 1, 1, 1)}
	o, err := degradation.NewPairwiseOracle(b, mtx, patterns, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := New(degradation.NewCost(b, o, degradation.ModePC), patterns)
	// The x-interior ranks (x = 1) are processes 2, 5, 8, ..., 26; each
	// exchanges with two x-neighbours outside the node and with y and z
	// neighbours, some of them inside.
	var node []job.ProcID
	for r := 1; r < 27 && len(node) < 8; r += 3 {
		node = append(node, job.ProcID(r+1))
	}
	ranks, ex := jobWord(t, g, node...)
	want := propertyRef(patterns[pcid], []int{1, 4, 7, 10, 13, 16, 19, 22})
	if ranks != 8 || ex != [3]int{want[0], want[1], want[2]} || ex[0] != 16 {
		t.Errorf("x-interior node: %d ranks, exchanges %v; want 8, %v with 16 along x", ranks, ex, want)
	}
	rng := rand.New(rand.NewSource(1))
	checkKeysMatchReference(t, g, patterns, func(fn func([]job.ProcID)) {
		nd := make([]job.ProcID, 8)
		for i := 0; i < 20000; i++ {
			for k, r := range rng.Perm(n)[:8] {
				nd[k] = job.ProcID(r + 1)
			}
			slices.Sort(nd)
			fn(nd)
		}
	})
}

// TestAppendCondenseKeyAllocationFree: keying a node into a buffer of
// capacity u touches no heap.
func TestAppendCondenseKeyAllocationFree(t *testing.T) {
	g := fig4Graph(t, comm.Grid2D(3, 3, 1, 1))
	buf := make([]uint64, 0, 2)
	node := []job.ProcID{1, 5}
	if allocs := testing.AllocsPerRun(100, func() { buf = g.AppendCondenseKey(buf[:0], node) }); allocs != 0 {
		t.Errorf("AppendCondenseKey costs %.1f allocs; want 0", allocs)
	}
}

func TestEffectiveRankAndPathMER(t *testing.T) {
	c, _ := pairInstance(t, 6, 2, 0.01)
	g := New(c, nil)
	// With weights 0.02*i*j, the cheapest partner for any leader is the
	// smallest free ID. Optimal path: <1,2>,<3,4>,<5,6>... verify MER of
	// that path: each node's effective rank.
	groups := [][]job.ProcID{{1, 2}, {3, 4}, {5, 6}}
	mer, ok := g.PathMER(groups)
	if !ok {
		t.Fatal("PathMER not computable")
	}
	// <1,2> is rank 1 in level 1 (cheapest). <3,4> is the cheapest valid
	// node of level 3 (nodes <3,4>..<3,6>). <5,6> likewise. MER = 1.
	if mer != 1 {
		t.Errorf("MER = %d; want 1", mer)
	}
	// A deliberately bad path has a larger MER.
	bad := [][]job.ProcID{{1, 6}, {2, 5}, {3, 4}}
	mer2, ok := g.PathMER(bad)
	if !ok {
		t.Fatal("PathMER not computable")
	}
	if mer2 <= 1 {
		t.Errorf("bad path MER = %d; want > 1", mer2)
	}
}

func TestPathMERCanonicalises(t *testing.T) {
	c, _ := pairInstance(t, 6, 2, 0.01)
	g := New(c, nil)
	a, _ := g.PathMER([][]job.ProcID{{1, 2}, {3, 4}, {5, 6}})
	b, _ := g.PathMER([][]job.ProcID{{6, 5}, {4, 3}, {2, 1}})
	if a != b {
		t.Errorf("MER depends on group ordering: %d vs %d", a, b)
	}
}

func TestNodeID(t *testing.T) {
	if got := NodeID([]job.ProcID{1, 2}); got != "<1,2>" {
		t.Errorf("NodeID = %q", got)
	}
}
