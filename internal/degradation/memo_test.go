package degradation

import (
	"math/rand"
	"sync"
	"testing"

	"cosched/internal/job"
)

// rawCost is the uncached answer NodeCosts must reproduce bit for bit:
// the oracle queried with the co-runners in ascending ID order.
func rawCost(o Oracle, mode Mode, p job.ProcID, coRunners []job.ProcID) float64 {
	co := job.SortedProcIDs(coRunners)
	d := o.Degradation(p, co)
	if mode == ModePC {
		d += o.CommDegradation(p, co)
	}
	return d
}

// orderedOracle is deliberately sensitive to co-runner order and not
// symmetric in process IDs, so a memo that keyed anything but the exact
// node, or passed co-runners in caller order, would give it away.
type orderedOracle struct{}

func (orderedOracle) Degradation(p job.ProcID, co []job.ProcID) float64 {
	d := float64(p) * 1e-3
	for k, q := range co {
		d += float64(k+1) * float64(q) * 1e-2
	}
	return d
}

func (orderedOracle) CommDegradation(p job.ProcID, co []job.ProcID) float64 {
	if len(co) == 0 {
		return 0
	}
	return float64(co[0]) * 1e-4
}

// serialBatch builds an all-serial batch of n processes on u cores.
func serialBatch(t *testing.T, n, u int) *job.Batch {
	t.Helper()
	bd := job.NewBuilder()
	for i := 0; i < n; i++ {
		bd.AddSerial("s")
	}
	b, err := bd.Build(u)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pairwiseInstance builds a random pairwise oracle over n serial
// processes.
func pairwiseInstance(t *testing.T, n int, seed int64) (*job.Batch, *PairwiseOracle) {
	t.Helper()
	b := serialBatch(t, n, 4)
	rng := rand.New(rand.NewSource(seed))
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
		for j := range mtx[i] {
			if i != j {
				mtx[i][j] = rng.Float64()
			}
		}
	}
	o, err := NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b, o
}

// subsets lists every k-subset of 1..n in ascending order.
func subsets(n, k int) [][]job.ProcID {
	var out [][]job.ProcID
	var rec func(start int, cur []job.ProcID)
	rec = func(start int, cur []job.ProcID) {
		if len(cur) == k {
			out = append(out, append([]job.ProcID(nil), cur...))
			return
		}
		for p := start; p <= n; p++ {
			rec(p+1, append(cur, job.ProcID(p)))
		}
	}
	rec(1, nil)
	return out
}

// size returns the number of cached nodes.
func (m *nodeMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.index)
}

// checkNode queries node through NodeCosts and through ProcCost for each
// member, and fails on any answer that differs from the raw oracle's.
func checkNode(t *testing.T, c *Cost, node []job.ProcID) {
	t.Helper()
	got := c.NodeCosts(nil, node)
	for i, p := range node {
		co := append(append([]job.ProcID(nil), node[:i]...), node[i+1:]...)
		want := rawCost(c.Oracle, c.Mode, p, co)
		if got[i] != want {
			t.Fatalf("NodeCosts(%v)[%d] = %v; raw oracle says %v", node, i, got[i], want)
		}
		if pc := c.ProcCost(p, co); pc != want {
			t.Fatalf("ProcCost(%d, %v) = %v; raw oracle says %v", p, co, pc, want)
		}
	}
}

func TestCostMemoBoundHolds(t *testing.T) {
	sdcBatch, sdc := testInstance(t, 4)
	pwBatch, pw := pairwiseInstance(t, 8, 3)
	const bound = 3
	for _, tc := range []struct {
		name  string
		batch *job.Batch
		o     Oracle
	}{
		{"sdc", sdcBatch, sdc},
		{"pairwise", pwBatch, pw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCost(tc.batch, tc.o, ModePC)
			c.memo.limit = bound
			rng := rand.New(rand.NewSource(1))
			nodes := append(subsets(tc.batch.NumProcs(), 4), subsets(tc.batch.NumProcs(), 2)...)
			// Two passes: the second revisits nodes the first evicted.
			for pass := 0; pass < 2; pass++ {
				for _, node := range nodes {
					shuffled := append([]job.ProcID(nil), node...)
					rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
					checkNode(t, c, shuffled)
					if n := c.memo.size(); n > bound {
						t.Fatalf("memo holds %d nodes; bound is %d", n, bound)
					}
				}
			}
			if n := c.memo.size(); n == 0 {
				t.Error("memo never cached a node")
			}
		})
	}
}

func TestNodeCostsExactForOrderSensitiveOracle(t *testing.T) {
	c := NewCost(serialBatch(t, 8, 4), orderedOracle{}, ModePC)
	node := []job.ProcID{2, 3, 5, 7}
	var permute func(k int)
	permute = func(k int) {
		if k == len(node) {
			checkNode(t, c, append([]job.ProcID(nil), node...))
			return
		}
		for i := k; i < len(node); i++ {
			node[k], node[i] = node[i], node[k]
			permute(k + 1)
			node[k], node[i] = node[i], node[k]
		}
	}
	permute(0)
	if n := c.memo.size(); n != 1 {
		t.Errorf("24 orderings of one node cached %d nodes; want 1", n)
	}

	// A hit copies into caller storage and allocates nothing.
	buf := make([]float64, 0, len(node))
	if allocs := testing.AllocsPerRun(100, func() {
		buf = c.NodeCosts(buf[:0], []job.ProcID{5, 2, 7, 3})
		_ = c.ProcCost(3, []job.ProcID{7, 5, 2})
	}); allocs != 0 {
		t.Errorf("a memo hit costs %.1f allocs; want 0", allocs)
	}

	// Nodes the key cannot hold are answered uncached, never truncated.
	for _, big := range [][]job.ProcID{
		{9, 1, 8, 2, 7, 3, 6, 4, 5}, // nine members
		{70000, 1, 2},               // an ID past 16 bits
	} {
		checkNode(t, c, big)
	}
	if n := c.memo.size(); n != 1 {
		t.Errorf("uncacheable nodes grew the memo to %d nodes", n)
	}
}

// TestCostMemoConcurrent shares one tightly bounded Cost between
// goroutines querying overlapping nodes, the way parallel search workers
// do, and checks every answer against the raw oracle. scripts/ci.sh runs
// it under -race -count=10.
func TestCostMemoConcurrent(t *testing.T) {
	b, o := testInstance(t, 4)
	c := NewCost(b, o, ModePC)
	c.memo.limit = 4
	nodes := append(subsets(b.NumProcs(), 4), subsets(b.NumProcs(), 3)...)
	want := make([][]float64, len(nodes))
	for i, node := range nodes {
		for j, p := range node {
			co := append(append([]job.ProcID(nil), node[:j]...), node[j+1:]...)
			want[i] = append(want[i], rawCost(o, ModePC, p, co))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []float64
			for r := 0; r < 200; r++ {
				i := rng.Intn(len(nodes))
				buf = c.NodeCosts(buf[:0], nodes[i])
				for j := range buf {
					if buf[j] != want[i][j] {
						t.Errorf("NodeCosts(%v)[%d] = %v; raw oracle says %v", nodes[i], j, buf[j], want[i][j])
						return
					}
				}
				p := nodes[i][0]
				if d := c.ProcCost(p, nodes[i][1:]); d != want[i][0] {
					t.Errorf("ProcCost(%d, %v) = %v; raw oracle says %v", p, nodes[i][1:], d, want[i][0])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := c.memo.size(); n > 4 {
		t.Errorf("memo holds %d nodes; bound is 4", n)
	}
}
