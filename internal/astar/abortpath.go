package astar

import (
	"fmt"
	"time"

	"cosched/internal/abort"
	"cosched/internal/job"
)

// This file is the anytime-search half of the solver: the per-pop abort
// poll (context, wall clock, expansion cap, memory budget) and the
// degraded-result paths that end an aborted search with the best
// incumbent schedule instead of an error. The poll runs at the TOP of
// the pop loop, before the pop is counted or its expand event emitted,
// so an aborted trace still satisfies the tracetool invariants: every
// counted pop has its expand event, and the admission identity
// Generated == Expanded + Dismissed + BeamTrimmed + InFrontier holds
// with InFrontier measured at the abort point.

// memCheckEvery is the pop interval between memory-footprint estimates:
// the estimate walks the pool list, so it is kept off the per-pop path.
// Must be a power of two (the poll masks with it).
const memCheckEvery = 64

// abortDone returns the context's done channel, or nil when no context
// was configured. Resolved once per solve so the per-pop poll is a
// single non-blocking channel receive.
func (s *Solver) abortDone() <-chan struct{} {
	if s.opts.Ctx != nil {
		return s.opts.Ctx.Done()
	}
	return nil
}

// pollAbort checks every abort condition and returns the triggered
// reason, or abort.None. It runs once per pop before the pop is
// processed and must stay allocation-free (the 0-alloc dismissed-child
// guarantee covers it: see TestDismissedChildAllocFreeWithTracing).
func (s *Solver) pollAbort(done <-chan struct{}, stats *Stats, start time.Time, frontierLen int) abort.Reason {
	if done != nil {
		select {
		case <-done:
			return abort.FromContext(s.opts.Ctx)
		default:
		}
	}
	if s.opts.MaxExpansions > 0 && stats.VisitedPaths >= s.opts.MaxExpansions {
		return abort.Expansions
	}
	if s.opts.TimeLimit > 0 && time.Since(start) > s.opts.TimeLimit {
		return abort.Deadline
	}
	if s.opts.MemoryBudget > 0 && stats.VisitedPaths&(memCheckEvery-1) == 0 &&
		s.memoryFootprint(frontierLen) > s.opts.MemoryBudget {
		return abort.Memory
	}
	return abort.None
}

// memoryFootprint estimates the search's live byte usage: every element
// the pools ever freshly allocated (free-listed elements still occupy
// their storage) at the solver's preallocated capacities, the key
// table's slot and arena storage, and the priority-list entries. An
// estimate, not an accounting — it tracks the dominant growth terms so
// MemoryBudget bounds the frontier before the process dies, which is
// all the budget promises.
func (s *Solver) memoryFootprint(frontierLen int) int64 {
	var alive int64
	for _, p := range s.allPools {
		alive += p.gets - p.reuse
	}
	// Per element: the struct itself plus its backing slices (set words,
	// key words, node, per-job maxima), all sized at solver capacities.
	perElem := int64(112) + 8*int64(s.keySetWords+s.keyStride+s.u+len(s.parJobs))
	bytes := alive * perElem
	if t := s.table; t != nil {
		bytes += int64(len(t.slots))*4 + int64(len(t.keys))*8 + int64(t.count)*16
	}
	return bytes + int64(frontierLen)*40
}

// degradedGroups picks the best schedule an aborted search can still
// return: the incumbent complete sub-path if one was admitted, else the
// precomputed greedy incumbent, else a fresh greedy schedule (the one
// fallback needing no search state at all). Returns the groups and
// their Eq. 13 cost, or nil for a malformed batch.
func (s *Solver) degradedGroups(bestComplete *element, greedyGroups [][]job.ProcID) ([][]job.ProcID, float64) {
	switch {
	case bestComplete != nil:
		return reconstruct(bestComplete), bestComplete.g
	case greedyGroups != nil:
		return greedyGroups, s.cost.PartitionCost(greedyGroups)
	default:
		g := s.greedySchedule()
		if g == nil {
			return nil, 0
		}
		return g, s.cost.PartitionCost(g)
	}
}

// finishAbort stamps the abort on the stats, publishes the abort
// telemetry (counter and trace event), emits the final stats and
// solution events, and builds the degraded Result. inFrontier is the
// admission-identity frontier at the abort point (priority-list length,
// or the beam's mid-depth survivors plus unprocessed frontier).
func (s *Solver) finishAbort(reason abort.Reason, stats *Stats, inFrontier int64,
	groups [][]job.ProcID, cost float64, start time.Time, met *solverMetrics) (*Result, error) {

	stats.Degraded = true
	stats.Aborted = reason
	stats.InFrontier = inFrontier
	stats.Duration = time.Since(start)
	s.fillAllocStats(stats)
	met.abort(reason)
	s.opts.Tracer.Abort(stats.VisitedPaths, reason)
	if groups == nil {
		return nil, fmt.Errorf("astar: search aborted (%s) with no feasible fallback schedule", reason)
	}
	s.opts.Tracer.Finish(stats, cost, groups)
	return &Result{Groups: groups, Cost: cost, Stats: *stats}, nil
}
