// Package astar implements the paper's primary contribution: the Optimal
// A*-search (OA*) and Heuristic A*-search (HA*) algorithms over the
// co-scheduling graph (§III, §IV).
//
// The search extends textbook A* in the two ways §III-C describes:
//
//  1. Valid paths. The priority list holds *process sets* (sub-paths keyed
//     by the set of processes they contain), and a sub-path is dismissed
//     only when a recorded sub-path over exactly the same process set has
//     a shorter distance (Theorem 1). Plain per-node dismissal would lose
//     optimal valid paths.
//  2. Parallel-aware distances. The distance of a sub-path follows Eq. 13:
//     serial degradations add up, while each parallel job contributes the
//     running maximum over its scheduled processes.
//
// HA* is OA* with each level's candidate nodes capped to the first
// MER = n/u valid nodes in ascending weight order (§IV). The O-SVP
// baseline of the authors' earlier work [33] is OA* with h = 0 (HNone):
// uniform-cost search over the same graph.
//
// Every engine takes its wall clock from Options.Ctx alone: a deadline
// or cancellation, like the expansion cap and the memory budget, ends
// the search with its best incumbent flagged Stats.Degraded.
//
// # File map
//
// The solver is split by concern: solver.go holds the sequential
// priority-list search (OA*/HA*); admit.go the one child admission, the
// best-g table contract and the incumbent that it shares with the
// parallel best-first engine; beam.go the layered beam search large
// batches use; expand.go candidate enumeration and condensation;
// heuristics.go the h(v) strategies of §III-D; keytable.go the
// word-packed dismissal table; pool.go the element free lists behind the
// allocation-free hot path; parsolve.go and stripetable.go the parallel
// best-first engine (DESIGN.md §5d); abortpath.go the one abort poll the
// pop loop, the parallel workers and the beam generators share, its
// memory-footprint estimate and the degraded result; telemetry.go the
// event tracer, metrics and progress layer (DESIGN.md §6); options.go the
// Options/Stats/Result surface.
package astar
