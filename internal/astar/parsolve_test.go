package astar

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/graph"
)

// This file tests the parallel best-first engine (parsolve.go) and the
// parallel beam path (beam.go): cost equality against the sequential
// solver across the eligible configuration matrix, the admission
// invariant on every run, abort semantics with workers racing, the
// memory breach every worker polls for, and the per-worker
// allocation-free dismissed-child guard. Run with -race; scripts/ci.sh does.

// checkInvariant asserts the admission identity that every solve —
// sequential or parallel, completed or aborted — must satisfy.
func checkInvariant(t *testing.T, st *Stats) {
	t.Helper()
	if got := st.Expanded + st.Dismissed + st.BeamTrimmed + st.InFrontier; got != st.Generated {
		t.Errorf("admission identity broken: generated %d != expanded %d + dismissed %d + trimmed %d + frontier %d",
			st.Generated, st.Expanded, st.Dismissed, st.BeamTrimmed, st.InFrontier)
	}
}

// TestParallelCostMatchesSequential is the correctness matrix: every
// eligible configuration solved at parallelism 1 (the exact legacy
// path), 2 and 8 must report the same optimal cost on the same seeded
// instance, and every run must satisfy the admission invariant.
func TestParallelCostMatchesSequential(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"oastar-hnone", Options{H: HNone}},
		{"oastar-hperproc", Options{H: HPerProc}},
		{"hastar-incumbent", Options{H: HPerProc, UseIncumbent: true}},
		{"oastar-condense", Options{H: HPerProc, Condense: true}},
		{"hastar-kperlevel", Options{H: HPerProc, KPerLevel: 3, UseIncumbent: true}},
		{"beam-hperprocavg", Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: 3}},
		{"beam-hperproc", Options{H: HPerProc, BeamWidth: 8, KPerLevel: 3}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
				base := solveWith(t, g, cfg.opts)
				checkInvariant(t, &base.Stats)
				if base.Stats.Parallelism != 1 {
					t.Fatalf("sequential solve reported parallelism %d", base.Stats.Parallelism)
				}
				for _, p := range []int{2, 8} {
					opts := cfg.opts
					opts.Parallelism = p
					res := solveWith(t, g, opts)
					checkInvariant(t, &res.Stats)
					if res.Stats.Parallelism != p {
						t.Errorf("seed %d p=%d: solve ran at parallelism %d", seed, p, res.Stats.Parallelism)
					}
					if math.Abs(res.Cost-base.Cost) > eps {
						t.Errorf("seed %d p=%d: parallel cost %v != sequential %v", seed, p, res.Cost, base.Cost)
					}
				}
			}
		})
	}
}

// TestParallelCostMatchesSequentialMixed repeats the matrix on mixed
// serial+parallel batches (the Eq. 13 accounting). The engine runs where
// set-keyed dismissal is exact — SE accounting, or ExactParallel's
// per-job maxima in the key — and must match the sequential cost there.
// Plain dismissal under PE/PC accounting keeps whichever same-set
// sub-path is admitted first (DESIGN.md §5a), so those configurations,
// the pinned Theorem-1 instance among them, must fall back to one
// worker and answer exactly as the sequential solver does.
func TestParallelCostMatchesSequentialMixed(t *testing.T) {
	type input struct {
		name     string
		g        *graph.Graph
		opts     Options
		parallel bool // the engine runs (else: sequential fallback)
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		pc := mixedGraph(t, 12, 2, 3, 4, seed, degradation.ModePC)
		se := mixedGraph(t, 12, 2, 3, 4, seed, degradation.ModeSE)
		inputs = append(inputs,
			input{fmt.Sprintf("seed%d-pc-exact", seed), pc, Options{H: HPerProc, ExactParallel: true}, true},
			input{fmt.Sprintf("seed%d-se", seed), se, Options{H: HPerProc}, true},
			input{fmt.Sprintf("seed%d-pc-plain", seed), pc, Options{H: HPerProc}, false})
	}
	inputs = append(inputs, input{"seed5-pc-exact",
		mixedGraph(t, 12, 2, 3, 4, 5, degradation.ModePC), Options{H: HPerProc, ExactParallel: true}, true})
	pinned := peMixInstance(t, 1)
	for _, mode := range []degradation.Mode{degradation.ModePE, degradation.ModePC} {
		g := graph.New(pinned.Cost(mode), pinned.Patterns)
		inputs = append(inputs,
			input{fmt.Sprintf("pinned-%v-plain", mode), g, Options{H: HPerProc}, false},
			input{fmt.Sprintf("pinned-%v-condense-incumbent", mode), g,
				Options{H: HPerProc, Condense: true, UseIncumbent: true}, false},
			input{fmt.Sprintf("pinned-%v-exact", mode), g, Options{H: HPerProc, ExactParallel: true}, true})
	}
	pinnedSE := graph.New(pinned.Cost(degradation.ModeSE), pinned.Patterns)
	inputs = append(inputs, input{"pinned-se", pinnedSE, Options{H: HPerProc, Condense: true}, true})

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			base := solveWith(t, in.g, in.opts)
			for _, p := range []int{2, 4, 8} {
				opts := in.opts
				opts.Parallelism = p
				res := solveWith(t, in.g, opts)
				checkInvariant(t, &res.Stats)
				want := 1
				if in.parallel {
					want = p
				}
				if res.Stats.Parallelism != want {
					t.Errorf("p=%d: solve ran at parallelism %d, want %d", p, res.Stats.Parallelism, want)
				}
				if math.Abs(res.Cost-base.Cost) > eps {
					t.Errorf("p=%d: parallel cost %v != sequential %v", p, res.Cost, base.Cost)
				}
			}
		})
	}
}

// TestParallelClonesShareLevelTable runs the parallel engine on solvers
// with a level table: a condensed PC mix under ExactParallel, where every
// worker reads classes and costs from the table and stamps classes in its
// own scratch, and a serial SDC batch. Every clone must read the solver's
// one table, and the cost must match the sequential solve's. Under -race
// (scripts/ci.sh) a worker writing the shared table is a reported race.
func TestParallelClonesShareLevelTable(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"pc-mix-condense-exact", mixedGraph(t, 12, 2, 3, 4, 1, degradation.ModePC), Options{H: HPerProc, Condense: true, ExactParallel: true}},
		{"serial", syntheticGraph(t, 12, 4, 2, degradation.ModePC), Options{H: HPerProc}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := solveWith(t, c.g, c.opts)
			opts := c.opts
			opts.Parallelism = 4
			s, err := NewSolver(c.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if s.levels == nil {
				t.Fatal("no level table")
			}
			res, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, &res.Stats)
			if res.Stats.Parallelism != 4 || len(s.parClones) != 3 {
				t.Fatalf("solve ran at parallelism %d with %d clones; want 4 and 3", res.Stats.Parallelism, len(s.parClones))
			}
			for i, w := range s.parClones {
				if w.levels != s.levels {
					t.Fatalf("clone %d reads its own level table", i)
				}
			}
			if math.Abs(res.Cost-base.Cost) > eps {
				t.Errorf("parallel cost %v != sequential %v", res.Cost, base.Cost)
			}
			if c.opts.Condense && res.Stats.Condensed == 0 {
				t.Error("no candidate condensed; the class stamps went unexercised")
			}
		})
	}
}

// TestParallelBeamBitIdentical pins the stronger beam guarantee: the
// parallel beam replays the sequential admission order exactly, so not
// just the cost but the groups and every search counter must match.
//
// The last cases are pairwise batches. At n = 64 on quad-core, k = 16
// is above exactWalkMaxK and C(63,3) = 39,711 above smallLevel, so the
// first depths run the anchored picks inside beamGenerate's workers and
// the later ones the pruned level walk; k = 8 hands the first depths to
// the walk too, above smallLevel. At n = 96 on 8-core, the anchored
// depths give way to small levels from 17 available processes down.
// At n = 240 on quad-core with 2 generators, each worker's 8 parents
// share leaders, so both workers serve them from their own groups
// (share.go), anchored and walked. Every worker builds its own leader
// orders. Each case solves sequentially first, on the same Solver, so
// the main solver's candidate scratch (its leader orders and depth
// groups included) is warm before ensureClones copies it; under -race a
// clone sharing that scratch is a reported race.
func TestParallelBeamBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := syntheticGraph(t, 16, 4, seed, degradation.ModePC)
		opts := Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 8, KPerLevel: 4}
		base := solveWith(t, g, opts)
		opts.Parallelism = 4
		res := solveWith(t, g, opts)
		checkBeamBitIdentical(t, fmt.Sprintf("seed %d", seed), base, res)
	}

	// Pairwise batches run every HA* generator inside the workers, each
	// clone building its own leader orders: anchored and small levels at
	// u = 4 and u = 8, and levels above smallLevel walked under a budget
	// of 8.
	for _, c := range []struct{ n, u, k, p int }{{64, 4, 16, 4}, {96, 8, 12, 4}, {64, 4, 8, 4}, {240, 4, 60, 2}} {
		s, err := NewSolver(pairwiseGraphTB(t, c.n, c.u, 1), Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: c.k})
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		s.opts.Parallelism = c.p
		res, err := s.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Parallelism != c.p {
			t.Fatalf("beam ran at parallelism %d; want %d", res.Stats.Parallelism, c.p)
		}
		name := fmt.Sprintf("pairwise n=%d u=%d k=%d p=%d", c.n, c.u, c.k, c.p)
		checkBeamBitIdentical(t, name, base, res)
		if c.n == 240 {
			// The last depth's groups: every generator shared one.
			for wi, w := range append([]*Solver{s}, s.parClones...) {
				sh := &w.scr.share
				shared := false
				for _, g := range sh.groups[:sh.used] {
					shared = shared || g.parents > 1
				}
				if !shared {
					t.Fatalf("%s: generator %d shared no leader at the last depth", name, wi)
				}
			}
		}
	}
}

// TestParallelBeamCondensedBitIdentical runs the parallel beam over a PC
// mix with condensation, where every generation worker dedups
// condensation keys in its own scratch. Worker 0 of beamGenerate is the
// solver itself, and its sequential first solve leaves that scratch warm
// before ensureClones copies the solver for the parallel one.
func TestParallelBeamCondensedBitIdentical(t *testing.T) {
	g := mixedGraph(t, 16, 6, 2, 4, 1, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 8, KPerLevel: 4, Condense: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	s.opts.Parallelism = 4
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Parallelism != 4 {
		t.Fatalf("beam ran at parallelism %d; want 4", res.Stats.Parallelism)
	}
	if res.Stats.Condensed == 0 {
		t.Fatal("condensation never fired on the PC mix")
	}
	checkBeamBitIdentical(t, "condensed PC mix", base, res)
}

// checkBeamBitIdentical fails unless a parallel beam result matches the
// sequential one in cost, groups and every search counter.
func checkBeamBitIdentical(t *testing.T, name string, base, res *Result) {
	t.Helper()
	if res.Cost != base.Cost {
		t.Errorf("%s: beam cost %v != sequential %v", name, res.Cost, base.Cost)
	}
	if len(res.Groups) != len(base.Groups) {
		t.Fatalf("%s: group count %d != %d", name, len(res.Groups), len(base.Groups))
	}
	for i := range res.Groups {
		for j := range res.Groups[i] {
			if res.Groups[i][j] != base.Groups[i][j] {
				t.Fatalf("%s: groups diverge at [%d][%d]", name, i, j)
			}
		}
	}
	bs, ps := base.Stats, res.Stats
	if ps.VisitedPaths != bs.VisitedPaths || ps.Expanded != bs.Expanded ||
		ps.Generated != bs.Generated || ps.Dismissed != bs.Dismissed ||
		ps.DismissedWorse != bs.DismissedWorse || ps.Condensed != bs.Condensed ||
		ps.BeamTrimmed != bs.BeamTrimmed || ps.InFrontier != bs.InFrontier ||
		ps.MaxQueue != bs.MaxQueue {
		t.Errorf("%s: parallel beam stats diverge from sequential:\n  seq: %+v\n  par: %+v", name, bs, ps)
	}
}

// TestParallelIneligibleFallsBack checks the silent sequential
// fallback: a weighted heuristic on the best-first path, whose answer is
// order-dependent, runs at parallelism 1 regardless of the request.
func TestParallelIneligibleFallsBack(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 1, degradation.ModePC)
	t.Run("weighted", func(t *testing.T) {
		res := solveWith(t, g, Options{H: HPerProc, HWeight: 1.5, KPerLevel: 3, Parallelism: 4})
		if res.Stats.Parallelism != 1 {
			t.Errorf("ineligible config ran at parallelism %d", res.Stats.Parallelism)
		}
	})
}

// TestParallelLevelStrategies runs the paper's Strategies 1 and 2 on
// both parallel engines. prepare builds what they read and nothing
// writes it after, so 4 best-first workers answer at the sequential
// cost, whether the minima come from the level table (OA*), from
// LevelStats (HA*, which has no table) or from the pair bound, and 4
// beam generators replay the sequential beam bit for bit.
func TestParallelLevelStrategies(t *testing.T) {
	serial := syntheticGraph(t, 12, 4, 1, degradation.ModePC)
	ha := syntheticGraph(t, 16, 4, 11, degradation.ModePC)
	pairBound := syntheticGraph(t, 12, 4, 4, degradation.ModePC)
	pairBound.EnumLimit = 2 // only the one-node last level is enumerable
	type tcase struct {
		name  string
		g     *graph.Graph
		opts  Options
		table bool
	}
	for _, h := range []HStrategy{HStrategy1, HStrategy2} {
		cases := []tcase{
			{"oastar-tabled", serial, Options{H: h}, true},
			{"hastar", ha, Options{H: h, KPerLevel: 4, UseIncumbent: true, Condense: true}, false},
			{"beam", serial, Options{H: h, BeamWidth: 64, KPerLevel: 3}, false},
		}
		if h == HStrategy2 {
			cases = append(cases, tcase{"oastar-pair-bound", pairBound, Options{H: h}, false})
		}
		for _, c := range cases {
			t.Run(h.String()+"/"+c.name, func(t *testing.T) {
				base := solveWith(t, c.g, c.opts)
				opts := c.opts
				opts.Parallelism = 4
				s, err := NewSolver(c.g, opts)
				if err != nil {
					t.Fatal(err)
				}
				if (s.levels != nil) != c.table {
					t.Fatalf("level table built: %v; want %v", s.levels != nil, c.table)
				}
				res, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.g.Cost.ValidatePartition(res.Groups); err != nil {
					t.Fatalf("invalid schedule: %v", err)
				}
				checkInvariant(t, &res.Stats)
				if res.Stats.Parallelism != 4 {
					t.Fatalf("solve ran at parallelism %d; want 4", res.Stats.Parallelism)
				}
				if opts.BeamWidth > 0 {
					checkBeamBitIdentical(t, c.name, base, res)
				} else if math.Abs(res.Cost-base.Cost) > eps {
					t.Errorf("parallel cost %v != sequential %v", res.Cost, base.Cost)
				}
			})
		}
	}
}

// TestParallelAbortPreCancelled runs the full worker fleet against an
// already-cancelled context: the solve must return a valid degraded
// schedule promptly, with the abort reason classified as Cancel.
func TestParallelAbortPreCancelled(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: 8, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	startAt := time.Now()
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(startAt); e > 2*time.Second {
		t.Errorf("pre-cancelled parallel abort took %v", e)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Cancel {
		t.Errorf("expected degraded Cancel result, got %+v", res.Stats)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
	checkInvariant(t, &res.Stats)
}

// TestParallelAbortMidRun cancels while the workers are expanding. The
// race between cancellation and completion is inherent, so both
// outcomes are accepted; either way the schedule must be valid and the
// invariant must hold.
func TestParallelAbortMidRun(t *testing.T) {
	g := syntheticGraph(t, 18, 2, 2, degradation.ModePC)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSolver(g, Options{H: HNone, Parallelism: 4, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded && res.Stats.Aborted != abort.Cancel {
		t.Errorf("degraded result with reason %v, want Cancel", res.Stats.Aborted)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("schedule invalid after mid-run cancel: %v", err)
	}
	checkInvariant(t, &res.Stats)
}

// TestParallelAbortExpansionCap bounds the shared-counter overshoot:
// with P workers each may claim at most one expansion past the cap
// before the next poll, so VisitedPaths lands in [cap, cap+P].
func TestParallelAbortExpansionCap(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	const p, cap = 4, 3
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: p, MaxExpansions: cap})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Expansions {
		t.Fatalf("expected degraded Expansions result, got %+v", res.Stats)
	}
	if v := res.Stats.VisitedPaths; v < cap || v > cap+p {
		t.Errorf("expansion cap %d at parallelism %d popped %d elements (overshoot bound is %d)",
			cap, p, v, cap+p)
	}
	checkInvariant(t, &res.Stats)
}

// TestParallelAbortMemoryBudget: a budget breached by the root alone
// must abort with abort.Memory from the parallel path too.
func TestParallelAbortMemoryBudget(t *testing.T) {
	g := syntheticGraph(t, 16, 4, 1, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: 4, MemoryBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Memory {
		t.Errorf("expected degraded Memory result, got %+v", res.Stats)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
}

// TestParallelMidRunMemoryBreach: a budget the root fits under but the
// search outgrows aborts the 4-worker engine mid-run with abort.Memory
// and its best incumbent — a valid degraded schedule, reported as the
// 4-worker solve it was, with the admission identity intact.
func TestParallelMidRunMemoryBreach(t *testing.T) {
	g := syntheticGraph(t, 20, 4, 1, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: 4, UseIncumbent: true})
	if err != nil {
		t.Fatal(err)
	}
	// The engine's table starts with shardCount(4) empty stripes; the
	// budget holds 8000 elements on top of them, about eight times what
	// the root's expansion admits and 2% of what the whole search
	// allocates.
	s.opts.MemoryBudget = s.footprint(8000, newStripedTable(s.keyStride, shardCount(4)).bytes(), 0)
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Memory {
		t.Fatalf("expected degraded Memory result, got %+v", res.Stats)
	}
	if res.Stats.Parallelism != 4 {
		t.Errorf("ran %d workers; want 4", res.Stats.Parallelism)
	}
	if res.Stats.VisitedPaths < 2 {
		t.Errorf("breached after %d pops; want a breach mid-run, not at the root", res.Stats.VisitedPaths)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
	checkInvariant(t, &res.Stats)
}

// TestParallelMemSampleBreach pins the parallel engine's memory sample,
// the one footprint estimate every worker polls: no abort while it is at
// or below MemoryBudget (or no budget is set), abort.Memory one element
// past it.
func TestParallelMemSampleBreach(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 1, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	en := &parEngine{s: s, workers: s.ensureClones(8), table: newStripedTable(s.keyStride, 8)}
	perElem := int64(112) + 8*int64(s.keySetWords+s.keyStride+s.u+len(s.parJobs))

	en.allocElems.Store(1 << 30)
	if en.memSample() != 0 || s.pollAbort(nil, 0, en.memSample()) != abort.None {
		t.Error("sampled or aborted with no budget set")
	}

	// The budget holds 1000 elements on top of the empty striped table,
	// whose slot arrays the footprint counts too.
	s.opts.MemoryBudget = en.table.bytes() + 1000*perElem
	for _, elems := range []int64{100, 1000} {
		en.allocElems.Store(elems)
		if s.pollAbort(nil, 0, en.memSample()) != abort.None {
			t.Errorf("poll aborted at %d of the budget's 1000 elements", elems)
		}
	}
	en.allocElems.Store(1001)
	if s.pollAbort(nil, 0, en.memSample()) != abort.Memory {
		t.Error("poll did not abort on a budget breach")
	}
}

// TestParallelWorkerDismissedChildAllocationFree extends the hot-path
// allocation guard to a worker clone: once its pool is warm, building a
// child, dismissing it through admitChild on the shared striped table and
// recycling it must not allocate (the pairwise-oracle regime, as in the
// sequential guard).
func TestParallelWorkerDismissedChildAllocationFree(t *testing.T) {
	sv, _, node := hotPathSolver(t, 120, 4, true)
	workers := sv.ensureClones(2)
	w := workers[1]
	st := newStripedTable(sv.keyStride, 8)
	root := w.rootElement()
	primeDismissal(w, st, root, node)
	inc := sv.newIncumbent()
	var local Stats
	allocs := testing.AllocsPerRun(200, func() {
		c, _ := dismissChild(t, w, st, inc, root, node, &local)
		w.recycle(c)
	})
	if allocs > 0 {
		t.Fatalf("worker dismissed child costs %.1f allocs; want 0", allocs)
	}
}

// TestParallelPoolWarmAcrossSolves: a second parallel solve on the same
// solver reuses the warm worker pools for its dismissed children
// (admitted elements are never recycled, so some fresh allocation
// always remains) and answers identically.
func TestParallelPoolWarmAcrossSolves(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 2, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HPerProc, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.Cost-second.Cost) > eps {
		t.Errorf("repeat solve changed cost %v -> %v", first.Cost, second.Cost)
	}
	if reused := second.Stats.ElemReused - first.Stats.ElemReused; reused == 0 {
		t.Error("second solve reused no pooled elements; worker pools should be warm")
	}
}

// TestStripedTableAgreesWithSequential drives one random stream of
// elements through the best-g table contract — probe, admit when the
// probe lets the element through, then stale on every element admitted
// so far — on the sequential gTable and on the striped table, which must
// answer alike at every step.
func TestStripedTableAgreesWithSequential(t *testing.T) {
	sv, err := NewSolver(syntheticGraph(t, 16, 4, 3, degradation.ModePC), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := randFor(11)
	tables := []bestGTable{newGTable(sv.keyStride), newStripedTable(sv.keyStride, 16)}
	var admitted [2][]*element
	for i := 0; i < 4000; i++ {
		key := make([]uint64, sv.keyStride)
		for w := range key {
			key[w] = uint64(rng.Intn(64)) << 1
		}
		g := float64(rng.Intn(100))
		var oks [2]bool
		for ti, tb := range tables {
			e := &element{keyWords: key, hash: hashKeyWords(key), g: g, keyRef: -1, stripe: -1}
			ref, ok := tb.probe(e)
			if ok && !tb.admit(e, ref) {
				t.Fatalf("step %d table %d: admit refused a probed key with no racing writer", i, ti)
			}
			if ok {
				admitted[ti] = append(admitted[ti], e)
			}
			oks[ti] = ok
		}
		if oks[0] != oks[1] {
			t.Fatalf("step %d: probe ok sequential %v, striped %v", i, oks[0], oks[1])
		}
		if i%100 == 99 {
			for j := range admitted[0] {
				if a, b := tables[0].stale(admitted[0][j]), tables[1].stale(admitted[1][j]); a != b {
					t.Fatalf("step %d, admitted element %d: stale sequential %v, striped %v", i, j, a, b)
				}
			}
		}
	}
	seq, par := tables[0].(*gTable), tables[1].(*stripedTable)
	if par.count() != seq.count {
		t.Errorf("striped entries %d != sequential count %d", par.count(), seq.count)
	}
}

// TestStripedTableBytesMatchSequential pins the parallel engine's table
// term of the memory footprint to the sequential table's accounting:
// after random admits, sequential and then from racing goroutines, with
// every stripe grown past its initial slots, bytes() equals the sum of
// the stripes' gTable.bytes().
func TestStripedTableBytesMatchSequential(t *testing.T) {
	sv, err := NewSolver(syntheticGraph(t, 16, 4, 3, degradation.ModePC), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := newStripedTable(sv.keyStride, 8)
	sum := func() int64 {
		var b int64
		for i := range st.stripes {
			b += st.stripes[i].t.bytes()
		}
		return b
	}
	if st.bytes() != sum() {
		t.Fatalf("empty table: bytes() = %d; stripes hold %d", st.bytes(), sum())
	}
	rng := randFor(5)
	key := make([]uint64, sv.keyStride)
	for i := 0; i < 3000; i++ {
		for w := range key {
			key[w] = uint64(rng.Intn(1<<12)) << 1
		}
		st.admit(&element{keyWords: key, hash: hashKeyWords(key), g: float64(rng.Intn(100))}, -1)
		if st.bytes() != sum() {
			t.Fatalf("admit %d: bytes() = %d; stripes hold %d", i, st.bytes(), sum())
		}
	}
	var wg sync.WaitGroup
	for wi := 0; wi < 4; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := randFor(int64(100 + wi))
			key := make([]uint64, sv.keyStride)
			for i := 0; i < 2000; i++ {
				for w := range key {
					key[w] = uint64(rng.Intn(1<<12)) << 1
				}
				st.admit(&element{keyWords: key, hash: hashKeyWords(key), g: float64(rng.Intn(100))}, -1)
			}
		}(wi)
	}
	wg.Wait()
	for i := range st.stripes {
		if len(st.stripes[i].t.slots) <= 256 {
			t.Fatalf("stripe %d never grew (%d slots); the test misses the slot term", i, len(st.stripes[i].t.slots))
		}
	}
	if st.bytes() != sum() {
		t.Fatalf("after concurrent admits: bytes() = %d; stripes hold %d", st.bytes(), sum())
	}
}
