package astar

// Average-based per-process estimates for the HPerProcAvg strategy.
//
// The admissible strategies bound each unscheduled process's future cost
// from below with its *cheapest possible* co-run, which at scale
// underestimates the true completion cost several-fold and leaves the
// best-first search weakly directed. HA* is a heuristic (the trimmed graph
// already forfeits global optimality, §IV), so for large batches it pays
// to estimate instead of bound: HPerProcAvg charges every unscheduled
// process its *average* pairwise degradation times (u-1) co-runners. The
// estimate is nearly exact in expectation for additive oracles, which
// makes the search strongly goal-directed; it is not admissible, so OA*
// must not use it when optimality proofs matter (NewSolver enforces this).

import (
	"fmt"

	"cosched/internal/job"
)

// computeAvgEstimates fills dminAll/dminSerial with expected per-process
// co-run costs instead of lower bounds. On an all-serial batch under the
// additive pairwise oracle (pairM set), ProcCost(p, {q}) is exactly the
// matrix entry m[p][q], so it is read from the matrix instead of going
// through the node memo.
func (s *Solver) computeAvgEstimates() {
	s.dminAll = make([]float64, s.n)
	s.dminSerial = make([]float64, s.n)
	b := s.gr.Batch
	for p := 1; p <= s.n; p++ {
		if b.Procs[p-1].Imaginary {
			continue
		}
		var sum float64
		var cnt int
		for q := 1; q <= s.n; q++ {
			if q == p {
				continue
			}
			if s.pairM != nil {
				sum += s.pairM[p-1][q-1]
			} else {
				sum += s.cost.ProcCost(job.ProcID(p), []job.ProcID{job.ProcID(q)})
			}
			cnt++
		}
		var est float64
		if cnt > 0 {
			est = sum / float64(cnt) * float64(s.u-1)
		}
		s.dminAll[p-1] = est
		if s.procPar[p-1] < 0 {
			s.dminSerial[p-1] = est
			s.hSerialAll += est
		}
	}
}

// validateAvgUse rejects configurations that would silently trade away
// OA*'s optimality guarantee.
func (s *Solver) validateAvgUse() error {
	if s.opts.H == HPerProcAvg && s.opts.KPerLevel <= 0 {
		return fmt.Errorf("astar: HPerProcAvg is not admissible; use it only with HA* (KPerLevel > 0)")
	}
	if s.opts.HWeight > 1 && s.opts.KPerLevel <= 0 {
		return fmt.Errorf("astar: HWeight %v > 1 breaks OA* optimality; use it only with HA* (KPerLevel > 0)", s.opts.HWeight)
	}
	if s.opts.BeamWidth > 0 && s.opts.KPerLevel <= 0 {
		return fmt.Errorf("astar: BeamWidth breaks OA* optimality; use it only with HA* (KPerLevel > 0)")
	}
	return nil
}
