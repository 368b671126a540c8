package astar

import (
	"testing"

	"cosched/internal/bitset"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

// greedyReference is an allocation-per-candidate reimplementation of
// greedySchedule: every candidate node gets a fresh backing array, so no
// aliasing between the node under construction and the probed candidates
// is possible. It is the oracle the scratch-buffer implementation is
// checked against.
func greedyReference(s *Solver) [][]job.ProcID {
	set := bitset.New(s.n)
	var groups [][]job.ProcID
	for {
		leader := set.SmallestAbsent(s.n)
		if leader == 0 {
			return groups
		}
		node := []job.ProcID{job.ProcID(leader)}
		set.Add(leader)
		for len(node) < s.u {
			bestP := 0
			bestW := 0.0
			first := true
			set.ForEachAbsent(s.n, func(v int) bool {
				cand := make([]job.ProcID, 0, len(node)+1)
				cand = append(cand, node...)
				cand = append(cand, job.ProcID(v))
				if w := s.cost.NodeWeight(cand); first || w < bestW {
					bestW, bestP, first = w, v, false
				}
				return true
			})
			if bestP == 0 {
				return nil
			}
			node = append(node, job.ProcID(bestP))
			set.Add(bestP)
		}
		groups = append(groups, job.SortedProcIDs(node))
	}
}

// TestGreedyScheduleScratchIsolation is the regression test for the
// aliasing hazard greedySchedule used to carry: with u >= 3 the candidate
// was built as append(node, v), sharing node's backing array across
// NodeWeight probes of the same machine. The scratch-buffer version must
// match an implementation that provably cannot alias, on machines deep
// enough (u = 4) that the shared-array window spans several probe rounds.
func TestGreedyScheduleScratchIsolation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := syntheticGraph(t, 24, 4, seed, degradation.ModePC)
		sv, err := NewSolver(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := greedyReference(sv)
		got := sv.greedySchedule()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d groups; want %d", seed, len(got), len(want))
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("seed %d: group %d = %v; want %v", seed, i, got[i], want[i])
				}
			}
		}
		if err := g.Cost.ValidatePartition(got); err != nil {
			t.Fatalf("seed %d: invalid greedy schedule: %v", seed, err)
		}

		// The returned schedule must own its memory: poisoning the
		// solver's scratch buffers afterwards must not reach it.
		snapshot := make([][]job.ProcID, len(got))
		for i := range got {
			snapshot[i] = append([]job.ProcID(nil), got[i]...)
		}
		for i := range sv.scr.greedyNd[:cap(sv.scr.greedyNd)] {
			sv.scr.greedyNd[:cap(sv.scr.greedyNd)][i] = 9999
		}
		for i := range sv.scr.greedyCd[:cap(sv.scr.greedyCd)] {
			sv.scr.greedyCd[:cap(sv.scr.greedyCd)][i] = 9999
		}
		for i := range got {
			for j := range got[i] {
				if got[i][j] != snapshot[i][j] {
					t.Fatalf("seed %d: schedule aliases solver scratch", seed)
				}
			}
		}
		// And a second run on the same solver (warm scratch) must agree.
		again := sv.greedySchedule()
		for i := range again {
			for j := range again[i] {
				if again[i][j] != snapshot[i][j] {
					t.Fatalf("seed %d: warm-scratch rerun diverged", seed)
				}
			}
		}
	}
}
