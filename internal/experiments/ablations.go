package experiments

import (
	"fmt"
	"time"

	"cosched/internal/astar"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/pg"
	"cosched/internal/workload"
)

// Ablations of the design choices DESIGN.md §5 calls out. These go beyond
// the paper: they isolate the effect of each mechanism this repository
// adds or reproduces.

func init() {
	register("ablation-dismissal", ablationDismissal)
	register("ablation-h", ablationH)
	register("ablation-beam", ablationBeam)
	register("ablation-oracle", ablationOracle)
}

// ablationDismissal compares the paper's set-keyed dismissal (Theorem 1)
// with this repo's exact-parallel dismissal on mixed batches: cost gap
// and search-size cost of exactness.
func ablationDismissal(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:    "ablation-dismissal",
		Title: "Set-keyed (paper) vs exact-parallel dismissal on mixed batches",
		Headers: []string{"seed", "plain cost", "exact cost", "gap",
			"plain paths", "exact paths"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	seeds := 8
	if opts.Quick {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		in, err := workload.SyntheticMixedInstance(12, 2, 3, m, opts.Seed*100+seed)
		if err != nil {
			return nil, err
		}
		run := func(exact bool) (*astar.Result, error) {
			g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
			s, err := astar.NewSolver(g, astar.Options{
				H: astar.HPerProc, Condense: true, UseIncumbent: true, ExactParallel: exact})
			if err != nil {
				return nil, err
			}
			return s.Solve()
		}
		plain, err := run(false)
		if err != nil {
			return nil, err
		}
		exact, err := run(true)
		if err != nil {
			return nil, err
		}
		gap := 0.0
		if exact.Cost > 0 {
			gap = (plain.Cost - exact.Cost) / exact.Cost * 100
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(seed), fmtDeg(plain.Cost), fmtDeg(exact.Cost),
			fmt.Sprintf("%.2f%%", gap),
			fmt.Sprint(plain.Stats.VisitedPaths), fmt.Sprint(exact.Stats.VisitedPaths)})
	}
	rep.Notes = append(rep.Notes,
		"gap 0%: plain dismissal found the optimum anyway; positive gaps are Theorem 1's blind spot under Eq. 13")
	return rep, nil
}

// ablationH compares all four admissible h estimators on one instance
// family: visited paths and time.
func ablationH(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "ablation-h",
		Title:   "h(v) estimators: visited paths and time (serial synthetic, quad-core)",
		Headers: []string{"jobs", "h", "visited paths", "time (s)"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	sizes := []int{12, 16}
	if !opts.Quick {
		sizes = append(sizes, 20)
	}
	for _, n := range sizes {
		in, err := workload.SyntheticSerialInstance(n, m, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, h := range []astar.HStrategy{astar.HNone, astar.HStrategy1, astar.HStrategy2, astar.HPerProc} {
			g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
			s, err := astar.NewSolver(g, astar.Options{H: h})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := s.Solve()
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprint(n), h.String(),
				fmt.Sprint(res.Stats.VisitedPaths), fmtSec(time.Since(start).Seconds())})
		}
	}
	rep.Notes = append(rep.Notes,
		"expected: strategy2 <= strategy1 <= perproc <= none in visited paths, all within a few percent on continuous synthetic costs (EXPERIMENTS.md, Table IV); perproc is the default h for its cost, not its paths: no level enumeration, O(1) per serial child, the same answers")
	return rep, nil
}

// ablationBeam sweeps HA*'s beam width on a large batch: quality vs time.
func ablationBeam(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "ablation-beam",
		Title:   "HA* beam width: schedule quality vs solving time (quad-core)",
		Headers: []string{"jobs", "beam", "avg degradation", "time (s)"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	n := 480
	beams := []int{4, 16, 64}
	if opts.Quick {
		n = 120
		beams = []int{4, 16}
	}
	in, err := workload.SyntheticPairwiseInstance(n, m, opts.Seed)
	if err != nil {
		return nil, err
	}
	for _, b := range beams {
		g := graph.New(in.Cost(degradation.ModePC), nil)
		s, err := astar.NewSolver(g, astar.Options{
			H: astar.HPerProcAvg, HWeight: 1.2, KPerLevel: n / 4, BeamWidth: b})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := s.Solve()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(b),
			fmtDeg(res.Cost / float64(len(in.Batch.Jobs))),
			fmtSec(time.Since(start).Seconds())})
	}
	// PG on the same instance is the reference every beam width must beat.
	start := time.Now()
	pgRes := pg.Solve(in.Cost(degradation.ModePC))
	rep.Rows = append(rep.Rows, []string{
		fmt.Sprint(n), "PG",
		fmtDeg(pgRes.Cost / float64(len(in.Batch.Jobs))),
		fmtSec(time.Since(start).Seconds())})
	rep.Notes = append(rep.Notes, "expected: wider beams buy small quality gains at roughly linear time cost; every width beats PG")
	return rep, nil
}

// ablationOracle measures the additive-pairwise approximation against the
// exact SDC oracle: schedule-quality loss when the fast oracle drives the
// search but the SDC oracle judges the result.
func ablationOracle(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "ablation-oracle",
		Title:   "SDC oracle vs additive pairwise approximation (quad-core)",
		Headers: []string{"seed", "jobs", "SDC-driven cost", "pairwise-driven cost", "excess"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	seeds := 5
	if opts.Quick {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		in, err := workload.SyntheticSerialInstance(12, m, opts.Seed*10+seed)
		if err != nil {
			return nil, err
		}
		cost := in.Cost(degradation.ModePC)
		exact, err := solveOA(in, degradation.ModePC)
		if err != nil {
			return nil, err
		}
		// Drive the search with the additive approximation sampled from
		// the SDC oracle, then judge its schedule with the SDC cost.
		pw, err := workload.PairwiseFromOracle(in)
		if err != nil {
			return nil, err
		}
		approx, err := solveOA(pw, degradation.ModePC)
		if err != nil {
			return nil, err
		}
		judged := cost.PartitionCost(approx.Groups)
		excess := 0.0
		if exact.Cost > 0 {
			excess = (judged - exact.Cost) / exact.Cost * 100
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(seed), "12", fmtDeg(exact.Cost), fmtDeg(judged),
			fmt.Sprintf("%.2f%%", excess)})
	}
	rep.Notes = append(rep.Notes,
		"excess is the quality paid for the O(u)-per-query oracle that the large-scale experiments need")
	return rep, nil
}
