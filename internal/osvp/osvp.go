// Package osvp implements the O-SVP baseline of the authors' earlier work
// [33] (MASCOTS 2014): an optimal shortest-valid-path search that extends
// Dijkstra's algorithm instead of A*. It shares the co-scheduling graph,
// the process-set dismissal strategy and the Eq. 13 distance with OA*, but
// expands sub-paths in plain distance order (h = 0) and has neither the
// h(v) pruning nor the process condensation — which is exactly the gap
// Tables III and IV quantify.
package osvp

import (
	"context"
	"time"

	"cosched/internal/astar"
	"cosched/internal/graph"
	"cosched/internal/telemetry"
)

// Options configures one O-SVP solve. The zero value runs an unbounded,
// untraced search.
type Options struct {
	// MaxExpansions aborts the search after this many pops (0 = no
	// limit); the search then returns the best incumbent as a degraded
	// result (astar.Stats.Aborted), like every other budget here.
	MaxExpansions int64
	// TimeLimit aborts the search after this much wall clock (0 = none).
	TimeLimit time.Duration
	// Ctx, when non-nil, is polled per pop: cancellation or an expired
	// deadline degrades the solve promptly.
	Ctx context.Context
	// MemoryBudget caps the search's estimated live bytes (0 = none).
	MemoryBudget int64
	// Metrics, when non-nil, receives the underlying search telemetry
	// ("astar.*" family with h = 0) plus the "osvp.solves" counter
	// (DESIGN.md §6).
	Metrics *telemetry.Registry
	// Tracer, when non-nil, writes the search's event trace exactly as
	// astar.Options.Tracer does; its solve_start names the method
	// O-SVP.
	Tracer *astar.EventTracer
	// Progress receives rate-limited progress lines for long searches.
	Progress *telemetry.ProgressReporter
}

// Solve finds the optimal co-schedule by uniform-cost search.
func Solve(g *graph.Graph) (*astar.Result, error) {
	return SolveOpts(g, Options{})
}

// SolveWithLimit aborts after maxExpansions pops, for bounded experiment
// runs on instances O-SVP cannot finish in reasonable time.
func SolveWithLimit(g *graph.Graph, maxExpansions int64) (*astar.Result, error) {
	return SolveOpts(g, Options{MaxExpansions: maxExpansions})
}

// SolveOpts runs the uniform-cost search with telemetry attached.
func SolveOpts(g *graph.Graph, opts Options) (*astar.Result, error) {
	if opts.Metrics != nil {
		opts.Metrics.Counter("osvp.solves").Add(1)
	}
	s, err := astar.NewSolver(g, astar.Options{
		H:             astar.HNone,
		MaxExpansions: opts.MaxExpansions,
		TimeLimit:     opts.TimeLimit,
		Ctx:           opts.Ctx,
		MemoryBudget:  opts.MemoryBudget,
		Metrics:       opts.Metrics,
		Tracer:        opts.Tracer,
		Progress:      opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	return s.Solve()
}
