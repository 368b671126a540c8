package astar

import (
	"cmp"
	"container/heap"
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
// all-serial batch: Strategy 1 every level's node weights, ascending;
// Strategy 2 every level's least node weight (levelMinWeight) and the
// leaders ordered by it, ties by leader. It polls the solve's context
// between levels; cut short, it leaves the rest unfilled (empty levels,
// no order, both still admissible) for a search whose first poll then
// aborts.
func (s *Solver) prepareLevelBounds() {
	last := s.n - s.u + 1
	if s.opts.H == HStrategy1 {
		s.levelWeights = make([][]float64, last+1)
	} else {
		s.levelMin = make([]float64, last+1)
		if s.levels == nil && !s.gr.LevelEnumerable(1) {
			s.computeDmin() // the pair bound's floors
		}
	}
	done := s.abortDone()
	for l := 1; l <= last; l++ {
		select {
		case <-done:
			return
		default:
		}
		if s.opts.H == HStrategy1 {
			ls, _ := s.gr.LevelStats(job.ProcID(l)) // prepare checked every level is enumerable
			s.levelWeights[l] = ls.SortedWeights
		} else {
			s.levelMin[l] = s.levelMinWeight(job.ProcID(l))
		}
	}
	if s.opts.H == HStrategy2 {
		s.levelOrder = make([]job.ProcID, last)
		for i := range s.levelOrder {
			s.levelOrder[i] = job.ProcID(i + 1)
		}
		slices.SortStableFunc(s.levelOrder, func(a, b job.ProcID) int {
			return cmp.Compare(s.levelMin[a], s.levelMin[b])
		})
	}
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
// element's last node and sum them. Implemented as a k-way merge over the
// per-level sorted weight arrays.
func (s *Solver) hStrategy1(e *element) float64 {
	k := (s.n - e.q) / s.u
	if k == 0 {
		return 0
	}
	if len(s.parJobs) > 0 {
		return s.hPerProc(e)
	}
	l := int(e.node[0])
	var mh mergeHeap
	for lv := l + 1; lv <= s.n-s.u+1; lv++ {
		if w := s.levelWeights[lv]; len(w) > 0 {
			mh = append(mh, mergeCursor{w: w[0], level: lv, idx: 0})
		}
	}
	heap.Init(&mh)
	var h float64
	for i := 0; i < k && mh.Len() > 0; i++ {
		cur := mh[0]
		h += cur.w
		if w := s.levelWeights[cur.level]; cur.idx+1 < len(w) {
			mh[0] = mergeCursor{w: w[cur.idx+1], level: cur.level, idx: cur.idx + 1}
			heap.Fix(&mh, 0)
		} else {
			heap.Pop(&mh)
		}
	}
	return h
}

type mergeCursor struct {
	w     float64
	level int
	idx   int
}

type mergeHeap []mergeCursor

func (m mergeHeap) Len() int            { return len(m) }
func (m mergeHeap) Less(i, j int) bool  { return m[i].w < m[j].w }
func (m mergeHeap) Swap(i, j int)       { m[i], m[j] = m[j], m[i] }
func (m *mergeHeap) Push(x interface{}) { *m = append(*m, x.(mergeCursor)) }
func (m *mergeHeap) Pop() interface{} {
	old := *m
	n := len(old)
	x := old[n-1]
	*m = old[:n-1]
	return x
}
