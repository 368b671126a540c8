package astar

import (
	"fmt"
	"sort"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// classTestSolver builds a solver over 2 PE jobs (3 ranks each) and 2
// serial jobs on quad-core machines with condensation on.
func classTestSolver(t *testing.T, mode degradation.Mode) (*Solver, *graph.Graph) {
	t.Helper()
	m := cache.QuadCore
	spec := workload.NewSpec()
	spec.AddPE(workload.SyntheticProgram("pe1", randFor(1)), 3)
	spec.AddPE(workload.SyntheticProgram("pe2", randFor(2)), 3)
	spec.AddSerial(workload.SyntheticProgram("s1", randFor(3)))
	spec.AddSerial(workload.SyntheticProgram("s2", randFor(4)))
	in, err := spec.Build(&m)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(mode), in.Patterns)
	s, err := NewSolver(g, Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestClassCandidateCount(t *testing.T) {
	s, _ := classTestSolver(t, degradation.ModePE)
	// Level 1: leader is rank 0 of pe1; available are ranks {2,3} of
	// pe1, ranks {4,5,6} of pe2, serial {7,8}. Classes: pe1 (2 members),
	// pe2 (3 members), s7, s8. Multisets of size 3:
	// enumerate (a from pe1 0..2, b from pe2 0..3, c7 0..1, c8 0..1 with
	// a+b+c7+c8=3): count = 12.
	avail := []job.ProcID{2, 3, 4, 5, 6, 7, 8}
	count := 0
	seen := map[string]bool{}
	s.forEachClassCandidate(1, avail, func(node []job.ProcID) bool {
		count++
		key := graph.NodeID(node)
		if seen[key] {
			t.Fatalf("duplicate representative %v", node)
		}
		seen[key] = true
		if node[0] != 1 || len(node) != 4 {
			t.Fatalf("bad node %v", node)
		}
		return true
	})
	want := 0
	for a := 0; a <= 2; a++ {
		for b := 0; b <= 3; b++ {
			for c7 := 0; c7 <= 1; c7++ {
				for c8 := 0; c8 <= 1; c8++ {
					if a+b+c7+c8 == 3 {
						want++
					}
				}
			}
		}
	}
	if count != want {
		t.Errorf("class candidates = %d; want %d (raw level has C(7,3)=35)", count, want)
	}
	if count >= 35 {
		t.Errorf("class enumeration did not shrink the level: %d nodes", count)
	}
}

func TestClassCandidateEarlyStop(t *testing.T) {
	s, _ := classTestSolver(t, degradation.ModePE)
	avail := []job.ProcID{2, 3, 4, 5, 6, 7, 8}
	n := 0
	s.forEachClassCandidate(1, avail, func(node []job.ProcID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("enumeration continued after stop: %d", n)
	}
}

func TestSymmetricJobByMode(t *testing.T) {
	m := cache.QuadCore
	spec := workload.NewSpec()
	prog, err := workload.PCProgram("CG-Par")
	if err != nil {
		t.Fatal(err)
	}
	spec.AddPC(prog, 4, nil)
	spec.AddSerial(workload.SyntheticProgram("s", randFor(9)))
	spec.AddSerial(workload.SyntheticProgram("t", randFor(10)))
	spec.AddSerial(workload.SyntheticProgram("u", randFor(11)))
	spec.AddSerial(workload.SyntheticProgram("v", randFor(12)))
	in, err := spec.Build(&m)
	if err != nil {
		t.Fatal(err)
	}
	// Under ModePC the PC job's ranks are position-bound: no
	// canonicalisation.
	gPC := graph.New(in.Cost(degradation.ModePC), in.Patterns)
	sPC, err := NewSolver(gPC, Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	if sPC.peAll != nil {
		t.Error("PC ranks canonicalised under ModePC")
	}
	// Under ModePE communication is invisible, so they are symmetric.
	gPE := graph.New(in.Cost(degradation.ModePE), in.Patterns)
	sPE, err := NewSolver(gPE, Options{H: HPerProc, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	if sPE.peAll == nil {
		t.Error("PC ranks not canonicalised under ModePE")
	}
}

// referenceClassCandidates is forEachClassCandidate as it was first
// written: a fresh class table and map per expansion, a recursive
// closure, and a fresh copy of every emitted node. The scratch-based
// enumeration must emit the same nodes in the same order.
func referenceClassCandidates(s *Solver, leader job.ProcID, avail []job.ProcID, fn func(node []job.ProcID) bool) {
	r := s.u - 1
	if r == 0 {
		fn([]job.ProcID{leader})
		return
	}
	if len(avail) < r {
		return
	}
	b := s.gr.Batch
	var classes [][]job.ProcID
	peClass := make(map[job.JobID]int)
	imClass := -1
	for _, p := range avail {
		j := b.JobOf(p)
		if j == nil {
			if imClass < 0 {
				imClass = len(classes)
				classes = append(classes, nil)
			}
			classes[imClass] = append(classes[imClass], p)
			continue
		}
		if s.symmetricJob(j.Kind) {
			ci, ok := peClass[j.ID]
			if !ok {
				ci = len(classes)
				peClass[j.ID] = ci
				classes = append(classes, nil)
			}
			classes[ci] = append(classes[ci], p)
			continue
		}
		classes = append(classes, []job.ProcID{p})
	}
	node := make([]job.ProcID, 0, s.u)
	node = append(node, leader)
	var rec func(ci, need int) bool
	rec = func(ci, need int) bool {
		if need == 0 {
			sorted := append([]job.ProcID(nil), node...)
			sortNode(sorted)
			return fn(sorted)
		}
		if ci >= len(classes) {
			return true
		}
		remaining := 0
		for i := ci; i < len(classes) && remaining < need; i++ {
			remaining += len(classes[i])
		}
		if remaining < need {
			return true
		}
		maxTake := len(classes[ci])
		if maxTake > need {
			maxTake = need
		}
		for take := 0; take <= maxTake; take++ {
			node = append(node, classes[ci][:take]...)
			ok := rec(ci+1, need-take)
			node = node[:len(node)-take]
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0, r)
}

// TestClassCandidatesMatchReference pins the class enumeration to
// referenceClassCandidates over random levels of PE mixes on quad- and
// 8-core machines (PE jobs of 2 to 5 ranks, serial jobs, a PC job that
// is symmetric only outside ModePC, and padding processes), with and
// without an early stop.
func TestClassCandidatesMatchReference(t *testing.T) {
	cases, padded := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := randFor(seed)
		for _, u := range []int{4, 8} {
			m, err := cache.MachineByCores(u)
			if err != nil {
				t.Fatal(err)
			}
			spec := workload.NewSpec()
			for i := 0; i < 2+rng.Intn(3); i++ {
				spec.AddPE(workload.SyntheticProgram(fmt.Sprintf("pe%d", i), randFor(100*seed+int64(i))), 2+rng.Intn(4))
			}
			for i := 0; i < 1+rng.Intn(4); i++ {
				spec.AddSerial(workload.SyntheticProgram(fmt.Sprintf("s%d", i), randFor(200*seed+int64(i))))
			}
			prog, err := workload.PCProgram("CG-Par")
			if err != nil {
				t.Fatal(err)
			}
			spec.AddPC(prog, 2, nil)
			in, err := spec.Build(&m)
			if err != nil {
				t.Fatal(err)
			}
			if in.Batch.Procs[in.Batch.NumProcs()-1].Imaginary {
				padded++
			}
			for _, mode := range []degradation.Mode{degradation.ModePE, degradation.ModePC} {
				s, err := NewSolver(graph.New(in.Cost(mode), in.Patterns), Options{H: HPerProc, Condense: true})
				if err != nil {
					t.Fatal(err)
				}
				if s.peAll == nil {
					t.Fatalf("seed %d u=%d: no symmetry classes", seed, u)
				}
				n := s.n
				for rep := 0; rep < 10; rep++ {
					picked := rng.Perm(n)[:u+rng.Intn(n-u+1)]
					sort.Ints(picked)
					leader := job.ProcID(picked[0] + 1)
					avail := make([]job.ProcID, 0, len(picked)-1)
					for _, p := range picked[1:] {
						avail = append(avail, job.ProcID(p+1))
					}
					for _, stop := range []int{1 << 30, 1 + rng.Intn(5)} {
						name := fmt.Sprintf("seed %d u=%d mode=%v |avail|=%d stop=%d", seed, u, mode, len(avail), stop)
						collect := func(gen func(func([]job.ProcID) bool)) [][]job.ProcID {
							var out [][]job.ProcID
							gen(func(node []job.ProcID) bool {
								out = append(out, append([]job.ProcID(nil), node...))
								return len(out) < stop
							})
							return out
						}
						got := collect(func(fn func([]job.ProcID) bool) { s.forEachClassCandidate(leader, avail, fn) })
						want := collect(func(fn func([]job.ProcID) bool) { referenceClassCandidates(s, leader, avail, fn) })
						sameNodeSequence(t, name, got, want)
						cases++
					}
				}
			}
		}
	}
	if padded == 0 {
		t.Fatal("no batch was padded; the padding class went unexercised")
	}
	t.Logf("%d cases, %d padded batches", cases, padded)
}
