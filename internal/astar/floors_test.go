package astar

import (
	"fmt"
	"math"
	"testing"

	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
)

// bruteFloor is the least ProcCost(p, S) over every set S of u-1 other
// processes, enumerated directly.
func bruteFloor(g *graph.Graph, p job.ProcID) float64 {
	u, n := g.U(), g.N()
	best := math.Inf(1)
	co := make([]job.ProcID, 0, u-1)
	var rec func(next int)
	rec = func(next int) {
		if len(co) == u-1 {
			best = min(best, g.Cost.ProcCost(p, co))
			return
		}
		for q := next; q <= n; q++ {
			if job.ProcID(q) != p {
				co = append(co, job.ProcID(q))
				rec(q + 1)
				co = co[:len(co)-1]
			}
		}
	}
	rec(1)
	return best
}

// TestLevelTableFloorsAreExact pins the per-process floors a level-table
// solver reads (computeDmin) to the brute-force minimum of ProcCost(p, S)
// over all (u-1)-sets S of other processes, on PC mixes under PC
// accounting (where Eq. 9's communication term makes the cheapest single
// co-runner no lower bound) and on serial SDC batches, at n <= 16. It logs
// how many ranks the single-co-runner floor overestimated.
func TestLevelTableFloorsAreExact(t *testing.T) {
	type batch struct {
		name string
		g    *graph.Graph
	}
	var batches []batch
	for seed := int64(1); seed <= 4; seed++ {
		batches = append(batches,
			batch{fmt.Sprintf("PC mix 16/6x2 u=4 seed=%d", seed), mixedGraph(t, 16, 6, 2, 4, seed, degradation.ModePC)},
			batch{fmt.Sprintf("PC mix 12/3x4 u=4 seed=%d", seed), mixedGraph(t, 12, 3, 4, 4, seed, degradation.ModePC)},
			batch{fmt.Sprintf("PC mix 16/4x4 u=8 seed=%d", seed), mixedGraph(t, 16, 4, 4, 8, seed, degradation.ModePC)},
			batch{fmt.Sprintf("serial 16 u=4 seed=%d", seed), syntheticGraph(t, 16, 4, seed, degradation.ModePC)},
			batch{fmt.Sprintf("serial 16 u=8 seed=%d", seed), syntheticGraph(t, 16, 8, seed, degradation.ModePC)},
			batch{fmt.Sprintf("serial 12 u=2 seed=%d", seed), syntheticGraph(t, 12, 2, seed, degradation.ModePC)},
		)
	}
	over := 0
	for _, b := range batches {
		s, err := NewSolver(b.g, Options{H: HPerProc, Condense: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.levels == nil {
			t.Fatalf("%s: no level table", b.name)
		}
		for p := 1; p <= s.n; p++ {
			if b.g.Batch.Procs[p-1].Imaginary {
				continue
			}
			want := bruteFloor(b.g, job.ProcID(p))
			if got := s.dminAll[p-1]; got != want {
				t.Fatalf("%s: process %d floor %v; brute force gives %v", b.name, p, got, want)
			}
			single := math.Inf(1)
			for q := 1; q <= s.n; q++ {
				if q != p {
					single = min(single, s.cost.ProcCost(job.ProcID(p), []job.ProcID{job.ProcID(q)}))
				}
			}
			if single > want {
				over++
			}
		}
	}
	t.Logf("%d batches: the cheapest single co-runner overestimated %d processes' floors", len(batches), over)
}
