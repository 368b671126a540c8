package experiments

import (
	"context"
	"fmt"
	"time"

	"cosched/internal/astar"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/ip"
	"cosched/internal/job"
	"cosched/internal/workload"
)

// solveOA runs the optimal A* search with the evaluation's standard
// configuration: the per-process bound as h, condensation on, greedy
// incumbent pruning on. ExactParallel strengthens the dismissal
// key with per-job maxima: the paper's plain set-keyed dismissal
// (Theorem 1) can miss the optimum on mixed batches (DESIGN.md §3, and
// Table II in EXPERIMENTS.md shows the case that exposed it).
func solveOA(in *workload.Instance, mode degradation.Mode) (*astar.Result, error) {
	return solveOAOpt(in, mode, 0, astar.Options{Condense: true, UseIncumbent: true, ExactParallel: true})
}

// solveOAOpt runs one OA* search; a positive limit bounds its wall clock
// through the search context.
func solveOAOpt(in *workload.Instance, mode degradation.Mode, limit time.Duration, opts astar.Options) (*astar.Result, error) {
	if limit > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), limit)
		defer cancel()
		opts.Ctx = ctx
	}
	c := in.Cost(mode)
	g := graph.New(c, in.Patterns)
	if opts.Metrics == nil {
		opts.Metrics = activeMetrics
	}
	if opts.Tracer == nil {
		opts.Tracer = astar.NewEventTracer(solveTrace())
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = activeParallelism
	}
	if opts.H == astar.HNone && opts.KPerLevel == 0 && !opts.UseIncumbent {
		// caller asked for raw defaults; leave as-is (O-SVP style)
	} else if opts.H == astar.HNone {
		// The per-process bound, cosched's default. It does not dominate
		// the paper's Strategy 2 (Table IV and ablation-h run both):
		// ablation-h's serial batches visit up to 3% more paths under it.
		// It returns the same costs, needs no level enumeration and
		// costs O(1) per serial child.
		opts.H = astar.HPerProc
	}
	s, err := astar.NewSolver(g, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve()
}

// capErr converts a degraded (budget-capped) search result into an
// error. The anytime solvers return a best-incumbent schedule when a
// cap breaks — right for production callers, wrong for experiment
// tables, which must report ">cap" rather than pass an unproven cost
// off as the optimum.
func capErr(res *astar.Result, err error) (*astar.Result, error) {
	if err == nil && res.Stats.Degraded {
		return nil, fmt.Errorf("search budget hit (%s)", res.Stats.Aborted)
	}
	return res, err
}

// solveOACapped is solveOA with an expansion cap, for experiment arms
// that may exceed laptop budgets; the caller degrades gracefully on
// error.
func solveOACapped(in *workload.Instance, mode degradation.Mode) (*astar.Result, error) {
	return capErr(solveOAOpt(in, mode, 2*time.Minute, astar.Options{
		Condense: true, UseIncumbent: true, ExactParallel: true,
		MaxExpansions: 2_000_000}))
}

// solveOAPlain runs OA* exactly as the paper specifies it — set-keyed
// dismissal without the per-job-max extension — which is what keeps the
// figure-scale parallel mixes tractable: the exact-parallel key carries
// continuous running maxima that defeat the symmetry canonicalisation
// (DESIGN.md §5a). Capped as a safety net.
func solveOAPlain(in *workload.Instance, mode degradation.Mode) (*astar.Result, error) {
	return capErr(solveOAOpt(in, mode, 2*time.Minute, astar.Options{
		Condense: true, UseIncumbent: true,
		MaxExpansions: 1_500_000}))
}

// haOptions is HA*'s policy for n processes on u-core machines
// (astar.HAStarOptions, the paper's MER budget k = n/u) with
// condensation on and the run's parallelism and observers.
func haOptions(n, u int) astar.Options {
	o := astar.HAStarOptions(n, u)
	o.Condense = true
	o.Parallelism, o.Metrics, o.Tracer = activeParallelism, activeMetrics, astar.NewEventTracer(solveTrace())
	return o
}

// solveHA runs the heuristic A* under haOptions.
func solveHA(in *workload.Instance, mode degradation.Mode) (*astar.Result, error) {
	g := graph.New(in.Cost(mode), in.Patterns)
	s, err := astar.NewSolver(g, haOptions(g.N(), g.U()))
	if err != nil {
		return nil, err
	}
	return s.Solve()
}

// avgJobDegradation evaluates a schedule under the given accounting mode
// and averages the per-job degradations.
func avgJobDegradation(in *workload.Instance, mode degradation.Mode, groups [][]job.ProcID) float64 {
	c := in.Cost(mode)
	per := c.PerJobDegradation(groups)
	if len(per) == 0 {
		return 0
	}
	var sum float64
	for _, d := range per {
		sum += d
	}
	return sum / float64(len(per))
}

// solveIPBest runs the strongest branch-and-bound preset with a safety
// time limit.
func solveIPBest(in *workload.Instance, mode degradation.Mode, limit time.Duration) (*ip.Result, error) {
	model, err := ip.BuildModel(in.Cost(mode))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cfg := ip.ConfigA
	cfg.Ctx = ctx
	cfg.Metrics = activeMetrics
	cfg.Trace = solveTrace()
	return ip.Solve(model, cfg)
}

// machineFor maps core counts to the evaluation machines.
func machineFor(u int) (*cache.Machine, error) {
	m, err := cache.MachineByCores(u)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// tableIIPEInstance mirrors workload.TableIIInstance but with the
// parallel jobs as PE (no communication), the "(pe)" rows of Table III.
func tableIIPEInstance(totalProcs int, m *cache.Machine) (*workload.Instance, error) {
	var serial []string
	var parProcs int
	switch totalProcs {
	case 8:
		serial = []string{"applu", "art", "equake", "vpr"}
		parProcs = 2
	case 12:
		serial = []string{"applu", "art", "ammp", "equake", "galgel", "vpr"}
		parProcs = 3
	case 16:
		serial = []string{"BT", "IS", "applu", "art", "ammp", "equake", "galgel", "vpr"}
		parProcs = 4
	default:
		return nil, fmt.Errorf("experiments: PE mix defined for 8/12/16 processes; got %d", totalProcs)
	}
	s := workload.NewSpec()
	mg, err := workload.PCProgram("MG-Par")
	if err != nil {
		return nil, err
	}
	lu, err := workload.PCProgram("LU-Par")
	if err != nil {
		return nil, err
	}
	s.AddPE(mg, parProcs)
	s.AddPE(lu, parProcs)
	for _, n := range serial {
		if _, err := s.AddSerialByName(n); err != nil {
			return nil, err
		}
	}
	return s.Build(m)
}
