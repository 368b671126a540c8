package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosched/internal/degradation"
	"cosched/internal/job"
)

// costMix is randomMix with a random interference matrix and a
// communication factor, so node costs vary and PC members pay Eq. 9's
// term.
func costMix(t *testing.T, rng *rand.Rand, u, maxProcs int) *Graph {
	t.Helper()
	g0, patterns := randomMix(t, rng, u, maxProcs)
	b := g0.Batch
	n := b.NumProcs()
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
		for j := range mtx[i] {
			if i != j && !b.Procs[i].Imaginary && !b.Procs[j].Imaginary {
				mtx[i][j] = 0.1 * float64(rng.Intn(4))
			}
		}
	}
	o, err := degradation.NewPairwiseOracle(b, mtx, patterns, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return New(degradation.NewCost(b, o, degradation.ModePC), patterns)
}

// tableIndex is a sorted node's index in t: its level's start plus its
// members' rank terms.
func tableIndex(t *LevelTable, node []job.ProcID) int {
	id := t.Start(node[0])
	for j, p := range node[1:] {
		id += t.Term(node[0], p, j+1)
	}
	return id
}

// TestLevelTableMatchesNodes walks every level of random serial/PE/PC
// mixes at u = 1, 2, 4 and 8 in ForEachNode's order and checks the level
// table against the graph: the rank terms map the level's nodes one to
// one onto its index range, the costs are Cost.NodeCosts' bit for bit,
// two nodes of a level share a class exactly when their condensation keys
// are equal, each floor is its process's least cost over the nodes, and
// LevelMin is LevelStats' minimum.
func TestLevelTableMatchesNodes(t *testing.T) {
	for _, u := range []int{1, 2, 4, 8} {
		maxProcs := map[int]int{1: 9, 2: 24, 4: 18, 8: 15}[u]
		for seed := int64(1); seed <= 5; seed++ {
			g := costMix(t, rand.New(rand.NewSource(seed*10+int64(u))), u, maxProcs)
			name := fmt.Sprintf("u=%d seed=%d", u, seed)
			tb := NewLevelTable(g, true, nil)
			if tb == nil {
				t.Fatalf("%s: no table for C(%d, %d) nodes", name, g.N(), u)
			}
			n := g.N()
			floor := make([]float64, n)
			for i := range floor {
				floor[i] = math.Inf(1)
			}
			for l := 1; l <= n-u+1; l++ {
				leader := job.ProcID(l)
				lo, hi := tb.Start(leader), tb.Start(leader+1)
				if want := int(Binomial(n-l, u-1)); hi-lo != want {
					t.Fatalf("%s: level %d spans %d indices; want C(%d, %d) = %d", name, l, hi-lo, n-l, u-1, want)
				}
				seen := make(map[int]bool)
				keyClass := map[string]int32{}
				classKey := map[int32]string{}
				g.ForEachNode(leader, g.fullLevelAvail(leader), func(node []job.ProcID) bool {
					id := tableIndex(tb, node)
					if id < lo || id >= hi || seen[id] {
						t.Fatalf("%s: node %v has index %d, outside [%d, %d) or taken", name, node, id, lo, hi)
					}
					seen[id] = true
					want := g.Cost.NodeCosts(nil, node)
					for i, c := range tb.Costs(id) {
						if math.Float64bits(c) != math.Float64bits(want[i]) {
							t.Fatalf("%s: node %v costs %v in the table; NodeCosts gives %v", name, node, tb.Costs(id), want)
						}
						floor[node[i]-1] = min(floor[node[i]-1], c)
					}
					c, key := tb.Class(id), fmt.Sprint(g.AppendCondenseKey(nil, node))
					if c < 0 || int(c) >= tb.Classes() {
						t.Fatalf("%s: node %v has class %d of %d", name, node, c, tb.Classes())
					}
					if prev, ok := keyClass[key]; ok && prev != c {
						t.Fatalf("%s: node %v: equal keys, classes %d and %d", name, node, prev, c)
					}
					if prev, ok := classKey[c]; ok && prev != key {
						t.Fatalf("%s: node %v: class %d shared by different keys", name, node, c)
					}
					keyClass[key], classKey[c] = c, key
					return true
				})
				ls, ok := g.LevelStats(leader)
				if !ok {
					t.Fatalf("%s: level %d not enumerable", name, l)
				}
				if got, want := tb.LevelMin(leader), ls.Min(); got != want {
					t.Fatalf("%s: level %d minimum %v from the table; LevelStats gives %v", name, l, got, want)
				}
			}
			for p := 1; p <= n; p++ {
				if got := tb.Floor(job.ProcID(p)); got != floor[p-1] {
					t.Fatalf("%s: process %d floor %v; its least node cost is %v", name, p, got, floor[p-1])
				}
			}
		}
	}
}

// TestLevelTableBudget checks the table's node bound, that it honours
// the graph's enumeration budget and a closed done channel, and that a
// table built without condensation numbers no classes.
func TestLevelTableBudget(t *testing.T) {
	c, _ := pairInstance(t, 48, 4, 0.001) // C(48, 4) = 194,580 nodes
	if NewLevelTable(New(c, nil), false, nil) != nil {
		t.Error("table built above LevelTableMax")
	}
	c, _ = pairInstance(t, 24, 4, 0.001) // C(24, 4) = 10,626 nodes
	done := make(chan struct{})
	close(done)
	if NewLevelTable(New(c, nil), false, done) != nil {
		t.Error("table built after done closed")
	}
	c, _ = pairInstance(t, 12, 4, 0.001)
	g := New(c, nil)
	g.EnumLimit = int(Binomial(11, 3)) - 1 // level 1 is beyond the budget
	if NewLevelTable(g, false, nil) != nil {
		t.Error("table built beyond the enumeration budget")
	}
	g.EnumLimit = 0
	tb := NewLevelTable(g, false, nil)
	if tb == nil || tb.Condensed() || tb.Classes() != 0 {
		t.Fatalf("12 serial processes without condensation: table %v", tb)
	}
	if got := tb.Start(10); got != int(Binomial(12, 4)) {
		t.Errorf("table ends at %d; want C(12, 4) = %d", got, Binomial(12, 4))
	}
}
