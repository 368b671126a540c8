package experiments

import (
	"context"
	"fmt"
	"time"

	"cosched/internal/astar"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/workload"
)

func init() {
	register("fig8", fig8)
	register("fig9", fig9)
}

// fig8 reproduces Figure 8: OA*-PC solving time with and without the
// communication-aware process condensation as the number of processes per
// parallel job grows (fixed total process count, 6 PC jobs, quad-core).
func fig8(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "fig8",
		Title:   "Solving time with and without process condensation (quad-core)",
		Headers: []string{"procs/job", "without (s)", "with (s)", "condensed nodes"},
	}
	// The paper runs 72 processes; exact OA*-PC over six multi-rank PC
	// jobs explodes beyond ~24 processes in this implementation (PC
	// ranks, unlike PE ranks, cannot be canonicalised in the dismissal
	// key), so the sweep is scaled down and the contrast direction is
	// what is reproduced.
	total := 20
	perJob := []int{1, 2, 3}
	if opts.Quick {
		total = 16
		perJob = []int{1, 2}
	}
	m, err := machineFor(4)
	if err != nil {
		return nil, err
	}
	for _, k := range perJob {
		in, err := workload.SyntheticMixedInstance(total, 6, k, m, opts.Seed)
		if err != nil {
			return nil, err
		}
		run := func(condense bool) (float64, int64, error) {
			start := time.Now()
			res, err := capErr(solveOAOpt(in, degradation.ModePC, 90*time.Second, astar.Options{
				H: astar.HPerProc, Condense: condense, UseIncumbent: true,
				MaxExpansions: 1_000_000}))
			if err != nil {
				return 0, 0, err
			}
			return time.Since(start).Seconds(), res.Stats.Condensed, nil
		}
		withoutCell := ""
		without, _, err := run(false)
		if err != nil {
			withoutCell = ">cap"
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("procs/job=%d without condensation hit the search budget", k))
		} else {
			withoutCell = fmtSec(without)
		}
		with, condensed, err := run(true)
		if err != nil {
			rep.Notes = append(rep.Notes,
				fmt.Sprintf("sweep stopped at procs/job=%d: condensed search hit the budget too", k))
			break
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(k), withoutCell, fmtSec(with), fmt.Sprint(condensed)})
	}
	rep.Notes = append(rep.Notes,
		"paper uses 72 total processes; scaled to keep the exact OA* solves tractable (EXPERIMENTS.md)",
		"expected shape: the condensation advantage grows with processes per parallel job")
	return rep, nil
}

// fig9 reproduces Figure 9: OA* solving-time scalability on dual-core and
// quad-core machines as the number of serial processes grows.
func fig9(opts RunOptions) (*Report, error) {
	rep := &Report{
		ID:      "fig9",
		Title:   "Scalability of OA* (seconds vs number of serial processes)",
		Headers: []string{"machine", "procs", "time (s)", "visited paths"},
	}
	type sweep struct {
		u     int
		sizes []int
	}
	sweeps := []sweep{
		{u: 2, sizes: []int{12, 24, 36, 48, 60, 72, 84, 96, 108, 120}},
		{u: 4, sizes: []int{12, 16, 20, 24, 28, 32}},
	}
	if opts.Quick {
		sweeps = []sweep{
			{u: 2, sizes: []int{12, 24, 36}},
			{u: 4, sizes: []int{12, 16}},
		}
	}
	budget := 60 * time.Second
	const maxExp = 2_000_000
	for _, sw := range sweeps {
		m, err := machineFor(sw.u)
		if err != nil {
			return nil, err
		}
		for _, n := range sw.sizes {
			in, err := workload.SyntheticPairwiseSmoothInstance(n, m, opts.Seed)
			if err != nil {
				return nil, err
			}
			c := in.Cost(degradation.ModePC)
			g := graph.New(c, in.Patterns)
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			s, err := astar.NewSolver(g, astar.Options{
				H: astar.HPerProc, UseIncumbent: true, Parallelism: activeParallelism,
				MaxExpansions: maxExp, Ctx: ctx})
			if err != nil {
				cancel()
				return nil, err
			}
			start := time.Now()
			res, err := capErr(s.Solve())
			el := time.Since(start)
			cancel()
			if err != nil {
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("%d-core sweep stopped at %d processes (expansion cap %d)", sw.u, n, maxExp))
				break
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("%d-core", sw.u), fmt.Sprint(n),
				fmtSec(el.Seconds()), fmt.Sprint(res.Stats.VisitedPaths)})
			if el > budget {
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("%d-core sweep stopped at %d processes (per-point budget %v exceeded)", sw.u, n, budget))
				break
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"expected shape: solving time grows steeply with n and with the core count")
	return rep, nil
}
