package astar

import (
	"cmp"
	"slices"

	"cosched/internal/degradation"
	"cosched/internal/job"
)

// heuristic dispatches the configured h(v) estimator for a freshly built
// child element. All strategies are admissible: they never exceed the true
// cheapest completion of the sub-path, which by §III-D guarantees that the
// search stays optimal (for OA*).
func (s *Solver) heuristic(e *element) float64 {
	if e.q >= s.n {
		return 0
	}
	switch s.opts.H {
	case HStrategy1:
		return s.hStrategy1(e)
	case HStrategy2:
		return s.hStrategy2(e)
	case HPerProc, HPerProcAvg:
		return s.hPerProc(e)
	default:
		return 0
	}
}

// hPerProc: every unscheduled serial process must eventually pay at least
// its cheapest pair degradation (co-runners never help); every parallel
// job must eventually pay at least the largest such floor among its
// unscheduled processes, less what the sub-path already paid for it.
func (s *Solver) hPerProc(e *element) float64 {
	h := e.hSerial
	if s.cost.Mode == degradation.ModeSE {
		return h // everything is charged per-process under SE accounting
	}
	b := s.gr.Batch
	for pi, jid := range s.parJobs {
		var maxRem float64
		for _, p := range b.Jobs[jid].Procs {
			if !e.set.Has(int(p)) {
				if d := s.dminAll[int(p)-1]; d > maxRem {
					maxRem = d
				}
			}
		}
		if e.jobMax != nil && maxRem > e.jobMax[pi] {
			h += maxRem - e.jobMax[pi]
		} else if e.jobMax == nil {
			h += maxRem
		}
	}
	return h
}

// prepareLevelBounds builds, once, what Strategies 1 and 2 read on an
// all-serial batch: for Strategy 1, per leader l, the prefix sums of the
// n/u smallest node weights of levels l+1 to n-u+1 (levelSums); for
// Strategy 2, every level's least node weight (levelMin) and the leaders
// ordered by it, ties by leader. Strategy 1 builds from the last level
// down, keeping the n/u smallest weights seen, and polls the solve's
// context between levels (as Strategy 2 does); cut short, it leaves the
// rest unfilled (no sums, empty levels, no order, all still admissible)
// for a search whose first poll then aborts.
func (s *Solver) prepareLevelBounds() {
	last := s.n - s.u + 1
	done := s.abortDone()
	if s.opts.H == HStrategy1 {
		// A child has k = (n-q)/u < n/u machines left to bound.
		keep := s.n / s.u
		s.levelSums = make([][]float64, last+1)
		var smallest []float64 // the keep smallest weights of the levels above l, ascending
		for l := last; l >= 1; l-- {
			select {
			case <-done:
				return
			default:
			}
			sums := make([]float64, len(smallest)+1)
			for i, w := range smallest {
				sums[i+1] = sums[i] + w
			}
			s.levelSums[l] = sums
			if l > 1 {
				ls, _ := s.gr.LevelStats(job.ProcID(l)) // prepare checked every level is enumerable
				smallest = append(smallest, ls.SortedWeights[:min(keep, len(ls.SortedWeights))]...)
				slices.Sort(smallest)
				smallest = smallest[:min(keep, len(smallest))]
			}
		}
		return
	}
	s.levelMin = make([]float64, last+1)
	if s.levels == nil && !s.gr.LevelEnumerable(1) {
		s.computeDmin() // the pair bound's floors
	}
	for l := 1; l <= last; l++ {
		select {
		case <-done:
			return
		default:
		}
		s.levelMin[l] = s.levelMinWeight(job.ProcID(l))
	}
	s.levelOrder = make([]job.ProcID, last)
	for i := range s.levelOrder {
		s.levelOrder[i] = job.ProcID(i + 1)
	}
	slices.SortStableFunc(s.levelOrder, func(a, b job.ProcID) int {
		return cmp.Compare(s.levelMin[a], s.levelMin[b])
	})
}

// levelMinWeight returns a lower bound on the least node weight of the
// level led by the given process: exact when the level is enumerable
// (read from the level table where the solver has one, which it has
// only when every level is), the sum of the u cheapest per-process pair
// floors otherwise.
func (s *Solver) levelMinWeight(leader job.ProcID) float64 {
	if s.levels != nil {
		return s.levels.LevelMin(leader)
	}
	if ls, ok := s.gr.LevelStats(leader); ok {
		return ls.Min()
	}
	w := s.dminAll[int(leader)-1]
	rest := slices.Clone(s.dminAll[leader:])
	slices.Sort(rest)
	for _, d := range rest[:min(s.u-1, len(rest))] {
		w += d
	}
	return w
}

// hStrategy2 (§III-D Strategy 2): the remaining (n-q)/u machines each
// cost at least the minimum node weight of one remaining valid level; the
// sum of the (n-q)/u smallest per-level minima over unscheduled-leader
// levels is therefore a lower bound. Levels beyond n-u+1 are statically
// empty (fewer than u-1 higher-numbered processes exist) and can never
// lead a node, so they are excluded rather than counted as zero. The
// minima are summed in the prepared ascending order, so no child sorts.
//
// With parallel jobs the Eq. 13 objective can undercut node-weight sums
// (a job's max may already be paid), so in mixed batches the bound is
// computed from serial-only node weights via the per-process floors.
func (s *Solver) hStrategy2(e *element) float64 {
	k := (s.n - e.q) / s.u
	if k == 0 {
		return 0
	}
	if len(s.parJobs) > 0 {
		// Mixed batch: fall back to the per-process bound, which
		// handles parallel maxima correctly (prepare built its floors).
		return s.hPerProc(e)
	}
	var h float64
	for _, l := range s.levelOrder {
		if k == 0 {
			break
		}
		if !e.set.Has(int(l)) {
			h += s.levelMin[l]
			k--
		}
	}
	return h
}

// hStrategy1 (§III-D Strategy 1): regardless of validity, take the
// (n-q)/u smallest node weights among all nodes of the levels below the
// element's last node and sum them, ascending. h depends only on that
// node's leader and on k, so it is one read of the sums prepare built.
func (s *Solver) hStrategy1(e *element) float64 {
	k := (s.n - e.q) / s.u
	if k == 0 {
		return 0
	}
	if len(s.parJobs) > 0 {
		return s.hPerProc(e)
	}
	sums := s.levelSums[e.node[0]]
	if len(sums) == 0 {
		return 0 // prepare was cut short before this leader
	}
	return sums[min(k, len(sums)-1)]
}
