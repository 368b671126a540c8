package astar

import (
	"context"
	"fmt"
	"time"

	"cosched/internal/abort"
	"cosched/internal/job"
	"cosched/internal/telemetry"
)

// HStrategy selects the h(v) estimator (§III-D).
type HStrategy int

const (
	// HNone uses h = 0: the search degenerates to uniform-cost
	// (Dijkstra) search, which is exactly the O-SVP algorithm of the
	// authors' earlier work [33].
	HNone HStrategy = iota
	// HStrategy1 is the paper's Strategy 1: take the (n-q)/u smallest
	// node weights from all nodes of the levels below v, regardless of
	// validity. Requires the graph's levels to be enumerable; prepare
	// enumerates them once.
	HStrategy1
	// HStrategy2 is the paper's Strategy 2: take the smallest node
	// weight of each of the (n-q)/u cheapest remaining valid levels.
	// prepare computes the per-level minima once, exact when levels are
	// enumerable and a pair-based lower bound otherwise.
	HStrategy2
	// HPerProc is this implementation's scalable per-process bound:
	// every unscheduled serial process contributes its cost floor (its
	// least cost over every node, or, beyond the level table, its
	// cheapest pair degradation — for additive-pairwise oracles the sum
	// of its u-1 cheapest), and every untouched parallel job the largest
	// such floor among its processes. O(1) amortised per serial child,
	// no level enumeration, admissible under the co-runner monotonicity
	// of the oracle. It does not dominate Strategy 2 (ablation-h) and
	// returns the same OA* costs.
	HPerProc
	// HPerProcAvg estimates instead of bounds: each unscheduled process
	// is charged its average pairwise degradation times (u-1)
	// co-runners. Not admissible — rejected for OA*; it is the strongly
	// goal-directed estimator HA* uses on large batches (Figs. 12-13
	// scale).
	HPerProcAvg
)

// String implements fmt.Stringer.
func (h HStrategy) String() string {
	switch h {
	case HNone:
		return "none"
	case HStrategy1:
		return "strategy1"
	case HStrategy2:
		return "strategy2"
	case HPerProc:
		return "perproc"
	case HPerProcAvg:
		return "perproc-avg"
	default:
		return fmt.Sprintf("HStrategy(%d)", int(h))
	}
}

// HAStarOptions returns HA*'s search policy for n processes on u-core
// machines (§IV): the paper's per-level budget k = n/u (its MER
// function), the per-process bound and the greedy incumbent; above 40
// processes the average-cost estimator, a mild depth bias (HWeight 1.2)
// and a beam of 16 survivors per depth, which the thousand-process
// batches of Figs. 12-13 need to converge (DESIGN.md §5a). The beam
// reads no incumbent. Callers add condensation, parallelism, the
// context and observers.
func HAStarOptions(n, u int) Options {
	if n > 40 {
		return Options{H: HPerProcAvg, HWeight: 1.2, KPerLevel: n / u, BeamWidth: 16}
	}
	return Options{H: HPerProc, KPerLevel: n / u, UseIncumbent: true}
}

// Options configures one search.
type Options struct {
	// H selects the h(v) strategy. The zero value is HNone.
	H HStrategy
	// KPerLevel, when positive, caps how many candidate nodes (in
	// ascending weight order) the search attempts per level: the HA*
	// trimming of §IV. Zero means unlimited (OA*).
	KPerLevel int
	// HWeight inflates the heuristic in the priority: f = g + HWeight·h
	// (weighted A*). Values above 1 make the search strongly
	// depth-directed, which is what lets HA* finish thousand-process
	// batches; they forfeit within-trimmed-graph optimality, so OA*
	// (KPerLevel == 0) rejects HWeight > 1. Zero means 1.
	HWeight float64
	// BeamWidth, when positive, caps how many elements the search
	// expands at each path depth (number of machines filled). It turns
	// HA* into a beam search with strictly bounded work
	// (BeamWidth × n/u expansions), the regime the thousand-process
	// experiments need. Zero means unbounded. Like HWeight > 1 it
	// forfeits optimality, so OA* rejects it.
	BeamWidth int
	// Condense enables the communication-aware process condensation of
	// §III-E: candidate nodes with identical condensation keys are
	// attempted once per expansion.
	Condense bool
	// ExactParallel extends the dismissal key with the per-parallel-job
	// running maxima, restoring provable optimality of Eq. 13 accounting
	// at the cost of a larger search space (DESIGN.md §3).
	ExactParallel bool
	// UseIncumbent primes the search with a greedy upper bound and
	// prunes children whose f exceeds it. Never affects optimality.
	UseIncumbent bool
	// MaxExpansions aborts the search after this many pops (0 = no
	// limit); the search then returns its best incumbent as a degraded
	// result (Stats.Aborted = abort.Expansions).
	MaxExpansions int64
	// Ctx, when non-nil, is the search's only wall clock: it is polled
	// once per pop (and once per element by the beam's generators), so a
	// cancelled or expired context aborts the search promptly —
	// mid-frontier — and returns the best incumbent as a degraded result
	// (Stats.Aborted = abort.Cancel or abort.Deadline). nil means no
	// deadline and no cancellation.
	Ctx context.Context
	// MemoryBudget, when positive, caps the search's estimated live byte
	// footprint: pooled elements at their preallocated capacities, the
	// dismissal key table's arenas, and the priority list. The estimate
	// is refreshed every few dozen pops; on breach the search returns its
	// best incumbent as a degraded result (Stats.Aborted = abort.Memory)
	// instead of growing the frontier until the process dies. Zero means
	// unbounded.
	MemoryBudget int64
	// Tracer, when non-nil, writes the solve's event trace (solve_start,
	// every expansion and dismissal, progress, abort, stats, solution)
	// through its telemetry.Emitter; build one with NewEventTracer. The
	// default nil costs one pointer test per traced site.
	Tracer *EventTracer
	// Metrics, when non-nil, receives live solver telemetry: the
	// "astar.*" counters and gauges catalogued in DESIGN.md §6 (pops,
	// expansions, dismissals by reason, condensations, beam trims,
	// frontier size, key-table load, pops/sec). Handles are resolved once
	// per solve and the hot loop flushes deltas every few thousand pops,
	// so a nil registry leaves the allocation-free child path untouched
	// and a non-nil one adds only periodic atomic writes.
	Metrics *telemetry.Registry
	// Progress, when non-nil, receives rate-limited human-readable
	// progress lines for long searches: pops, pops/sec, frontier size,
	// path depth and a depth-extrapolated ETA. The solver polls it every
	// 256 pops; the reporter's Every field controls line frequency.
	Progress *telemetry.ProgressReporter
	// Parallelism runs N independent expansion workers over a sharded
	// frontier (parsolve.go), the paper's §VII future-work direction:
	// per-shard heaps, work stealing, a shared incumbent bound, and a
	// memory-aware load balancer that parks workers as the MemoryBudget
	// footprint grows. 0 and 1 select the single-goroutine pop loop.
	// Values above 1 apply only to configurations whose answer
	// is provably order-independent — the beam search with any
	// heuristic, and best-first search with an admissible heuristic
	// (every h but HPerProcAvg) at HWeight <= 1 and exact dismissal
	// (ExactParallel or SE accounting when the batch has parallel jobs);
	// everything else silently runs sequentially. Stats.Parallelism
	// records the worker count actually used, so callers can observe
	// the fallback.
	Parallelism int
}

// Stats reports the work a search performed. All counters are populated
// by every search mode (OA*, HA*, beam) unless noted; they reconcile by
// the admission invariant
//
//	Generated == Expanded + Dismissed + BeamTrimmed + InFrontier
//
// — every admitted sub-path is eventually expanded, superseded, trimmed
// by the beam, or still awaiting expansion when the solve returns (the
// invariant test in telemetry_test.go pins this across modes).
type Stats struct {
	// VisitedPaths counts popped (expanded) priority-list elements, the
	// paper's Table IV metric. It includes the root element, so it
	// exceeds Expanded by exactly one on a completed solve.
	VisitedPaths int64
	// Expanded counts admitted (non-root) elements that were popped and
	// processed, including the goal pop that ends an OA*/HA* solve.
	Expanded int64
	// Generated counts child sub-paths admitted into the priority list
	// (or, for the beam search, into a depth's survivor table). Children
	// dismissed before admission appear in DismissedWorse/Pruned instead.
	Generated int64
	// Dismissed counts admitted sub-paths later superseded by a cheaper
	// same-key sub-path: stale priority-list pops, and beam-depth
	// survivors replaced within their depth.
	Dismissed int64
	// DismissedWorse counts children dismissed *before* admission because
	// the best-g table already held a same-key sub-path at least as cheap
	// (the Theorem 1 dismissal, by far the most common child fate).
	DismissedWorse int64
	// Condensed counts candidate nodes skipped by condensation.
	Condensed int64
	// Pruned counts children discarded against the incumbent bound: the
	// greedy schedule's cost under UseIncumbent, then the cheapest
	// complete child admitted (best-first searches with an admissible h
	// at weight 1 only; zero otherwise).
	Pruned int64
	// BeamTrimmed counts admitted sub-paths dropped by the beam's
	// per-depth width cap (beam search only; zero otherwise).
	BeamTrimmed int64
	// InFrontier is the number of admitted sub-paths still awaiting
	// expansion when the solve returned: the final priority-list length,
	// or the beam's last frontier.
	InFrontier int64
	// MaxQueue is the high-water mark of the priority list (elements),
	// or of the beam frontier after trimming.
	MaxQueue int
	// Duration is the wall-clock solving time. PrepareDuration is the
	// one-off heuristic-table precomputation inside NewSolver, reported
	// by the solver's first Solve call only.
	Duration        time.Duration
	PrepareDuration time.Duration
	// ElemAllocated counts search elements newly allocated by the pools;
	// ElemReused counts elements served from a free list instead. Their
	// ratio is the headline of the pooled hot path: on large searches
	// reuse dominates by orders of magnitude.
	ElemAllocated int64
	ElemReused    int64
	// KeyTableEntries is the number of distinct dismissal keys recorded;
	// KeyTableLoad the open-addressing slot occupancy in [0,1] at the end
	// of the solve (the beam search reports its last depth).
	KeyTableEntries int
	KeyTableLoad    float64
	// Parallelism is the number of expansion workers the solve actually
	// ran (1 for the sequential pop loop, including configurations
	// where a requested Parallelism > 1 was ineligible and fell back).
	Parallelism int
	// Steals counts pops an expansion worker took from a frontier shard
	// it does not own (parallel solves only; zero otherwise).
	Steals int64
	// Speculative counts parallel expansions of elements whose f was
	// above the global frontier minimum at pop time — work a sequential
	// search would have deferred, admitted speculatively to keep workers
	// busy. Their children re-enter through the shared dismissal table,
	// so speculation never affects the answer.
	Speculative int64
	// Parked counts park transitions of the memory-aware load balancer:
	// workers throttled while the footprint estimate sat between the
	// soft threshold and the hard MemoryBudget (parallel solves only).
	Parked int64
	// Degraded reports that the search stopped before proving its answer
	// (deadline, cancellation, expansion cap or memory budget) and
	// returned the best incumbent it held instead: a feasible schedule,
	// not a proven-optimal one. Aborted carries the reason.
	Degraded bool
	Aborted  abort.Reason
}

// Result is a complete co-schedule found by the search.
type Result struct {
	// Groups is the partition of processes onto machines, in valid-path
	// order (ascending leaders).
	Groups [][]job.ProcID
	// Cost is the Eq. 13 objective of the schedule under the search's
	// cost model, in degradation units (a dimensionless slowdown sum).
	Cost float64
	// Stats describes the search effort. Searches aborted by
	// MaxExpansions, MemoryBudget or a done Ctx still return a Result —
	// the best incumbent schedule, flagged Stats.Degraded with the
	// abort.Reason in Stats.Aborted — so a breached budget costs
	// certainty, not the answer.
	Stats Stats
}
