package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"cosched/internal/astar"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/workload"
)

func init() {
	register("ablation-workers", ablationWorkers)
	register("ablation-symmetry", ablationSymmetry)
}

// ablationWorkers measures the parallel best-first engine (the paper's
// §VII future-work direction, DESIGN.md §5d): the same OA* search at
// increasing worker counts, equal costs required.
func ablationWorkers(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "ablation-workers",
		Title:   "Parallel best-first search: OA* solve time vs workers (quad-core)",
		Headers: []string{"jobs", "workers", "time (s)", "cost"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	n := 16
	if !opts.Quick {
		n = 20
	}
	in, err := workload.SyntheticSerialInstance(n, m, opts.Seed)
	if err != nil {
		return nil, err
	}
	workers := []int{1, 2, 4}
	if max := runtime.NumCPU(); max >= 8 && !opts.Quick {
		workers = append(workers, 8)
	}
	var baseline float64
	for _, w := range workers {
		g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
		s, err := astar.NewSolver(g, astar.Options{
			H: astar.HPerProc, UseIncumbent: true, Parallelism: w})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := s.Solve()
		if err != nil {
			return nil, err
		}
		if res.Stats.Parallelism != w {
			return nil, fmt.Errorf("ablation-workers: asked for %d workers, ran %d", w, res.Stats.Parallelism)
		}
		if w == 1 {
			baseline = res.Cost
		} else if math.Abs(res.Cost-baseline) > 1e-9 {
			return nil, fmt.Errorf("ablation-workers: workers=%d changed the optimum", w)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(w),
			fmtSec(time.Since(start).Seconds()), fmtDeg(res.Cost)})
	}
	rep.Notes = append(rep.Notes,
		"costs are equal across worker counts (the engine runs only order-independent configurations)",
		fmt.Sprintf("nproc = %d: workers beyond it time-share cores, so their speed-up is bounded by it", runtime.NumCPU()))
	return rep, nil
}

// ablationSymmetry isolates this repo's sub-path symmetry machinery
// (PE-rank key canonicalisation + class-based candidate enumeration) on a
// PE-heavy mix: generated sub-paths and time with and without it.
func ablationSymmetry(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "ablation-symmetry",
		Title:   "PE symmetry canonicalisation: search size with and without (quad-core)",
		Headers: []string{"procs/job", "raw generated", "canonical generated", "raw time (s)", "canonical time (s)"},
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	perJob := []int{3, 4}
	if opts.Quick {
		perJob = []int{3}
	}
	for _, k := range perJob {
		in, err := workload.PEMixInstance(k, m)
		if err != nil {
			return nil, err
		}
		run := func(condense bool, cap int64) (*astar.Result, float64, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()
			g := graph.New(in.Cost(degradation.ModePE), in.Patterns)
			s, err := astar.NewSolver(g, astar.Options{
				H: astar.HPerProc, Condense: condense, UseIncumbent: true,
				MaxExpansions: cap, Ctx: ctx})
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			res, err := capErr(s.Solve())
			return res, time.Since(start).Seconds(), err
		}
		canonical, tCanon, err := run(true, 4_000_000)
		if err != nil {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("sweep stopped at procs/job=%d: canonical search hit the budget", k))
			break
		}
		rawCell, rawTime := ">cap", ">cap"
		raw, tRaw, err := run(false, 400_000)
		if err == nil {
			rawCell = fmt.Sprint(raw.Stats.Generated)
			rawTime = fmtSec(tRaw)
			if raw.Cost < canonical.Cost-1e-9 {
				return nil, fmt.Errorf("ablation-symmetry: canonical search missed the optimum at k=%d", k)
			}
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(k), rawCell, fmt.Sprint(canonical.Stats.Generated),
			rawTime, fmtSec(tCanon)})
	}
	rep.Notes = append(rep.Notes,
		"canonicalisation collapses equivalent PE-rank permutations; the gap widens with ranks per job")
	return rep, nil
}
