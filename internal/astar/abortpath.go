package astar

import (
	"fmt"
	"time"

	"cosched/internal/abort"
	"cosched/internal/job"
)

// This file is the anytime-search half of the solver: the one abort poll
// the three search engines share (the pop loop, the parallel workers and
// the beam generators), the one memory-footprint estimate it reads, and
// the degraded-result path that ends an aborted search with the best
// incumbent schedule instead of an error. The pop loop and the beam
// merge poll at the TOP of each pop, before the pop is counted or its
// expand event emitted, so an aborted trace still satisfies the tracetool
// invariants: every counted pop has its expand event, and the admission
// identity Generated == Expanded + Dismissed + BeamTrimmed + InFrontier
// holds with InFrontier measured at the abort point.

// memCheckEvery is the pop interval between the sequential engines'
// memory samples: the sample walks the pool list, so it is kept off the
// per-pop path. Must be a power of two (memSample masks with it).
const memCheckEvery = 64

// queuedBytes is the footprint charged per frontier entry: a 32-byte
// heapEntry plus the slack of the append-grown heap slice holding it.
const queuedBytes = 40

// abortDone returns the context's done channel, or nil when no context
// was configured. Resolved once per solve so the poll is a single
// non-blocking channel receive.
func (s *Solver) abortDone() <-chan struct{} {
	if s.opts.Ctx != nil {
		return s.opts.Ctx.Done()
	}
	return nil
}

// pollAbort is the abort check of every search engine. It returns the
// first condition that holds, or abort.None: the context is done (its
// deadline expired or it was cancelled), visited pops have reached
// MaxExpansions, or footprint — the caller's memory sample in bytes, 0
// when it took none — exceeds MemoryBudget. It runs once per pop and
// must stay allocation-free (TestPollAbortAllocationFree).
func (s *Solver) pollAbort(done <-chan struct{}, visited, footprint int64) abort.Reason {
	if done != nil {
		select {
		case <-done:
			return abort.FromContext(s.opts.Ctx)
		default:
		}
	}
	if s.opts.MaxExpansions > 0 && visited >= s.opts.MaxExpansions {
		return abort.Expansions
	}
	if s.opts.MemoryBudget > 0 && footprint > s.opts.MemoryBudget {
		return abort.Memory
	}
	return abort.None
}

// footprint is the one estimate of a search's live bytes behind
// MemoryBudget: elems elements the pools freshly allocated (free-listed
// ones still hold their storage) at the solver's preallocated
// capacities, the dismissal table's storage, and queued frontier
// entries. An estimate, not an accounting — it tracks the dominant
// growth terms so the budget bounds the frontier before the process
// dies, which is all the budget promises.
func (s *Solver) footprint(elems, tableBytes, queued int64) int64 {
	// Per element: the struct itself plus its backing slices (set words,
	// key words, node, per-job maxima), all sized at solver capacities.
	perElem := int64(112) + 8*int64(s.keySetWords+s.keyStride+s.u+len(s.parJobs))
	return elems*perElem + tableBytes + queued*queuedBytes
}

// memSample is the memory sample of the single-goroutine engines (the
// pop loop and the beam merge) at pop count visited with queued frontier
// entries: the footprint every memCheckEvery pops while a budget is set,
// 0 otherwise.
func (s *Solver) memSample(visited int64, queued int) int64 {
	if s.opts.MemoryBudget <= 0 || visited&(memCheckEvery-1) != 0 {
		return 0
	}
	var elems int64
	for _, p := range s.allPools {
		elems += p.gets - p.reuse
	}
	return s.footprint(elems, s.table.bytes(), int64(queued))
}

// finishAbort ends an aborted search with a degraded Result. groups and
// cost are the engine's incumbent, or nil when it holds none; a fresh
// greedy schedule, the one fallback needing no search state, answers
// then. It stamps the abort on the stats, publishes the abort telemetry
// (counter and trace event), and emits the final stats and solution
// events. inFrontier is the admission-identity frontier at the abort
// point (priority-list length, or the beam's mid-depth survivors plus
// unprocessed frontier).
func (s *Solver) finishAbort(reason abort.Reason, stats *Stats, inFrontier int64,
	groups [][]job.ProcID, cost float64, start time.Time, met *solverMetrics) (*Result, error) {

	if groups == nil {
		if groups = s.greedySchedule(); groups != nil {
			cost = s.cost.PartitionCost(groups)
		}
	}
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
