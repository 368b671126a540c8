package ip

import (
	"context"

	"cosched/internal/telemetry"
)

// Config selects the branch-and-bound behaviour. The four presets below
// stand in for the four IP solvers the paper benchmarks in Table III
// (CPLEX, CBC, SCIP, GLPK): one shared core, four points on the
// sophistication scale, so the table's qualitative ordering — commercial
// solver fastest, basic solver slowest, all of them far behind OA* — can
// be reproduced without proprietary software (DESIGN.md §3).
type Config struct {
	Name string
	// BestFirst explores nodes in LP-bound order; false means
	// depth-first.
	BestFirst bool
	// MostFractional branches on the most fractional column; false
	// means first-fractional (Bland-style).
	MostFractional bool
	// Rounding derives incumbents from fractional LPs, tightening
	// pruning early.
	Rounding bool
	// MaxNodes aborts after this many branch-and-bound nodes (0 =
	// none).
	MaxNodes int64
	// Ctx, when non-nil, is the solve's only wall clock, polled once per
	// branch-and-bound node: a cancelled or expired context aborts the
	// solve promptly and returns the incumbent as a degraded result
	// (Stats.Aborted). The paper's SCIP runs gave up at 1000 seconds the
	// same way.
	Ctx context.Context
	// LPIterLimit caps simplex pivots per relaxation (0 = default).
	LPIterLimit int
	// Metrics, when non-nil, receives live branch-and-bound telemetry:
	// the "ip.*" counters and gauges catalogued in DESIGN.md §6 (nodes,
	// LP pivots, bound improvements, incumbent value). Deltas are
	// flushed every few hundred nodes, so the per-node cost is nil
	// checks only.
	Metrics *telemetry.Registry
	// Trace writes the solve's event trace (solve_start, incumbent
	// improvements, abort, final stats, solution) so IP runs land in the
	// same JSONL traces the graph searches produce and cmd/coschedtrace
	// can account for them. cosched passes the emitter its phase spans
	// and other producers share; the zero Emitter traces nothing.
	Trace telemetry.Emitter
}

// The four preset configurations, strongest first.
var (
	// ConfigA — best-first, most-fractional branching, LP rounding: the
	// "commercial solver" stand-in (CPLEX row of Table III).
	ConfigA = Config{Name: "bnb-best+round", BestFirst: true, MostFractional: true, Rounding: true}
	// ConfigB — best-first without the rounding heuristic (CBC row).
	ConfigB = Config{Name: "bnb-best", BestFirst: true, MostFractional: true}
	// ConfigC — depth-first with most-fractional branching (SCIP row).
	ConfigC = Config{Name: "bnb-depth", BestFirst: false, MostFractional: true}
	// ConfigD — depth-first, first-fractional, no heuristics: the
	// baseline solver stand-in (GLPK row).
	ConfigD = Config{Name: "bnb-basic", BestFirst: false, MostFractional: false}
)

// Configs lists the presets in Table III column order.
func Configs() []Config { return []Config{ConfigA, ConfigB, ConfigC, ConfigD} }
