package astar

import (
	"math"
	"sync"
	"sync/atomic"

	"cosched/internal/job"
)

// This file is the one admission pipeline of the two best-first engines,
// the sequential pop loop (solver.go) and the parallel workers
// (parsolve.go): the best-g table contract both engines' tables meet, the
// incumbent both prune against, and admitChild, which every child either
// engine generates passes through (§III-C). The engines differ only in
// their pop loops and termination rules, where an admitted child is
// pushed, and how they publish counters and trace events.

// bestGTable is the best-g table contract: the Theorem-1 record of the
// cheapest admitted distance per dismissal key. gTable meets it without
// locks and stripedTable under its stripe locks; nothing else reads or
// writes a best-first engine's record. The beam's per-depth table is a
// dedup map rebuilt every depth, not a record over the search, and keeps
// gTable's find/insert instead.
type bestGTable interface {
	// probe is the dismissal check before h: ok is false when an entry
	// at least as cheap as e already holds e's key. ref is admit's hint.
	probe(e *element) (ref int32, ok bool)
	// admit records e as its key's best and sets e's entry reference. It
	// returns false only when another stripe-locked writer recorded e's
	// key at least as cheaply since the probe.
	admit(e *element, ref int32) bool
	// stale is the pop-side check: a cheaper same-key sub-path
	// superseded the admitted e while it was queued.
	stale(e *element) bool
}

// admitChild runs the admission pipeline on a freshly generated child in
// the paper's order: the Theorem-1 probe before any h work, h, the
// incumbent prunes, the offer of a complete child and the table admit. It
// counts the child's fate into st. An admitted child comes back with its
// f for the caller to push; a dismissed one with its reason, for the
// caller to trace before recycling it.
func (s *Solver) admitChild(t bestGTable, inc *incumbent, child *element, st *Stats) (f float64, r DismissReason, ok bool) {
	ref, ok := t.probe(child)
	if !ok {
		st.DismissedWorse++
		return 0, DismissWorse, false
	}
	child.h = s.heuristic(child)
	f = child.g + s.hw*child.h
	if s.pruneExact {
		// The bound is finite only once a schedule achieves it, and f is
		// always finite, so a path with f == ub cannot beat a schedule in
		// hand: ties are pruned too, except a complete child, which is
		// such a schedule.
		if ub := inc.bound(); f > ub || f >= ub-1e-12 && child.q < s.n {
			st.Pruned++
			return 0, DismissPruned, false
		}
	}
	if child.q == s.n {
		inc.offer(child)
	}
	if !t.admit(child, ref) {
		st.DismissedWorse++
		return 0, DismissWorse, false
	}
	st.Generated++
	return f, 0, true
}

// incumbent is the cheapest complete schedule a best-first solve holds,
// greedy or searched, shared by every worker of a parallel solve. The
// bound is atomic, so the per-child prune reads it with a plain load; an
// offer that lowers it pays a CAS, and one that improves or ties it the
// lock and a reconstruction. Ties keep the greedy schedule, then the
// lexicographically smallest groups, so the schedule kept does not
// depend on the order workers offer theirs.
type incumbent struct {
	ub     atomic.Uint64 // Float64bits of cost; +Inf while there is none
	mu     sync.Mutex
	groups [][]job.ProcID
	cost   float64
	greedy bool
}

// newIncumbent starts a solve's incumbent: the greedy schedule when the
// options ask for one, else none.
func (s *Solver) newIncumbent() *incumbent {
	inc := &incumbent{}
	inc.ub.Store(math.Float64bits(math.Inf(1)))
	if s.opts.UseIncumbent {
		if groups := s.greedySchedule(); groups != nil {
			inc.groups, inc.cost, inc.greedy = groups, s.cost.PartitionCost(groups), true
			inc.ub.Store(math.Float64bits(inc.cost))
		}
	}
	return inc
}

// bound returns the incumbent's cost, +Inf while there is none.
func (inc *incumbent) bound() float64 {
	return math.Float64frombits(inc.ub.Load())
}

// offer folds a complete sub-path into the incumbent. Its groups are
// reconstructed here, so the element may be recycled like any other once
// it goes stale; its parents are expanded elements, never recycled, so
// the walk is safe while other workers run.
func (inc *incumbent) offer(e *element) {
	for {
		old := inc.ub.Load()
		if e.g >= math.Float64frombits(old) || inc.ub.CompareAndSwap(old, math.Float64bits(e.g)) {
			break
		}
	}
	if e.g > inc.bound() {
		return // a cheaper schedule is in hand, or being installed
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	switch {
	case inc.groups == nil || e.g < inc.cost:
		inc.groups, inc.cost, inc.greedy = reconstruct(e), e.g, false
	case e.g == inc.cost && !inc.greedy:
		if cand := reconstruct(e); groupsLess(cand, inc.groups) {
			inc.groups = cand
		}
	}
}

// best returns the incumbent schedule and its cost; groups is nil when
// there is none.
func (inc *incumbent) best() ([][]job.ProcID, float64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.groups, inc.cost
}

// groupsLess orders two partitions lexicographically over their
// flattened process IDs (group count first).
func groupsLess(a, b [][]job.ProcID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		ga, gb := a[i], b[i]
		if len(ga) != len(gb) {
			return len(ga) < len(gb)
		}
		for j := range ga {
			if ga[j] != gb[j] {
				return ga[j] < gb[j]
			}
		}
	}
	return false
}
