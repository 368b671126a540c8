package astar

import (
	"math"
	"math/rand"
	"testing"

	"cosched/internal/abort"
	"cosched/internal/bruteforce"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/job"
	"cosched/internal/workload"
)

const eps = 1e-9

func solveWith(t *testing.T, g *graph.Graph, opts Options) *Result {
	t.Helper()
	s, err := NewSolver(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if got := g.Cost.PartitionCost(res.Groups); math.Abs(got-res.Cost) > eps {
		t.Fatalf("reported cost %v != recomputed %v", res.Cost, got)
	}
	return res
}

func syntheticGraph(t *testing.T, n, u int, seed int64, mode degradation.Mode) *graph.Graph {
	t.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SyntheticSerialInstance(n, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return graph.New(in.Cost(mode), in.Patterns)
}

func mixedGraph(t *testing.T, total, parJobs, procsPer, u int, seed int64, mode degradation.Mode) *graph.Graph {
	t.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SyntheticMixedInstance(total, parJobs, procsPer, &m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return graph.New(in.Cost(mode), in.Patterns)
}

func TestOAStarMatchesBruteForceSerial(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := syntheticGraph(t, 8, 2, seed, degradation.ModePC)
		bf, err := bruteforce.Solve(g.Cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []HStrategy{HNone, HStrategy1, HStrategy2, HPerProc} {
			res := solveWith(t, g, Options{H: h})
			if math.Abs(res.Cost-bf.Cost) > eps {
				t.Errorf("seed %d h=%v: OA* cost %v != brute force %v", seed, h, res.Cost, bf.Cost)
			}
		}
	}
}

func TestOAStarMatchesBruteForceQuadCore(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		bf, err := bruteforce.Solve(g.Cost)
		if err != nil {
			t.Fatal(err)
		}
		res := solveWith(t, g, Options{H: HStrategy2})
		if math.Abs(res.Cost-bf.Cost) > eps {
			t.Errorf("seed %d: OA* %v != brute force %v", seed, res.Cost, bf.Cost)
		}
	}
}

func TestOAStarMatchesBruteForceMixed(t *testing.T) {
	// Mixed serial+PC batches: Eq. 13 accounting with per-job maxima and
	// communication terms.
	for seed := int64(1); seed <= 6; seed++ {
		g := mixedGraph(t, 12, 2, 3, 4, seed, degradation.ModePC)
		bf, err := bruteforce.Solve(g.Cost)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{H: HPerProc},
			{H: HPerProc, Condense: true},
			{H: HPerProc, ExactParallel: true},
			{H: HStrategy2},
			{H: HNone},
		} {
			res := solveWith(t, g, opts)
			if math.Abs(res.Cost-bf.Cost) > eps {
				t.Errorf("seed %d opts %+v: OA* %v != brute force %v", seed, opts, res.Cost, bf.Cost)
			}
		}
	}
}

func TestOAStarMatchesBruteForcePEJobs(t *testing.T) {
	// PE jobs through the SDC oracle (no comm): per-job max accounting.
	m := cache.QuadCore
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := workload.NewSpec()
		spec.AddPE(workload.SyntheticProgram("pe1", rng), 4)
		spec.AddPE(workload.SyntheticProgram("pe2", rng), 3)
		for i := 0; i < 5; i++ {
			spec.AddSerial(workload.SyntheticProgram("s", rng))
		}
		in, err := spec.Build(&m)
		if err != nil {
			t.Fatal(err)
		}
		g := graph.New(in.Cost(degradation.ModePE), in.Patterns)
		bf, err := bruteforce.Solve(g.Cost)
		if err != nil {
			t.Fatal(err)
		}
		res := solveWith(t, g, Options{H: HPerProc})
		if math.Abs(res.Cost-bf.Cost) > eps {
			t.Errorf("seed %d: OA*-PE %v != brute force %v", seed, res.Cost, bf.Cost)
		}
	}
}

func TestUseIncumbentPreservesOptimality(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		plain := solveWith(t, g, Options{H: HStrategy2})
		pruned := solveWith(t, g, Options{H: HStrategy2, UseIncumbent: true})
		if math.Abs(plain.Cost-pruned.Cost) > eps {
			t.Errorf("seed %d: incumbent pruning changed cost %v -> %v", seed, plain.Cost, pruned.Cost)
		}
	}
}

func TestStrategy2VisitsFewerPathsThanStrategy1(t *testing.T) {
	// Table IV's qualitative claim. Aggregated over seeds to tolerate
	// individual ties.
	var v1, v2 int64
	for seed := int64(1); seed <= 5; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		v1 += solveWith(t, g, Options{H: HStrategy1}).Stats.VisitedPaths
		v2 += solveWith(t, g, Options{H: HStrategy2}).Stats.VisitedPaths
	}
	if float64(v2) > 1.05*float64(v1) {
		t.Errorf("Strategy 2 visited %d paths; Strategy 1 %d — expected 2 <= 1", v2, v1)
	}
}

func TestOSVPVisitsMorePathsThanOAStar(t *testing.T) {
	var vn, v2 int64
	for seed := int64(1); seed <= 5; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		vn += solveWith(t, g, Options{H: HNone}).Stats.VisitedPaths
		v2 += solveWith(t, g, Options{H: HStrategy2}).Stats.VisitedPaths
	}
	if vn <= v2 {
		t.Errorf("h=none visited %d paths <= strategy2's %d", vn, v2)
	}
}

func TestHAStarNearOptimal(t *testing.T) {
	// HA* with k = n/u must produce a valid schedule within a small
	// factor of the optimum (§IV/§V-E: within ~10% in the paper).
	var worst float64
	for seed := int64(1); seed <= 8; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		opt := solveWith(t, g, Options{H: HStrategy2})
		ha := solveWith(t, g, Options{H: HPerProc, KPerLevel: 3})
		if ha.Cost < opt.Cost-eps {
			t.Fatalf("seed %d: HA* cost %v below optimum %v", seed, ha.Cost, opt.Cost)
		}
		if ratio := ha.Cost / opt.Cost; ratio > worst {
			worst = ratio
		}
	}
	if worst > 1.35 {
		t.Errorf("HA* worst-case ratio %v; want near-optimal (< 1.35)", worst)
	}
}

func TestHAStarKPerLevelOneIsGreedyLike(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 3, degradation.ModePC)
	res := solveWith(t, g, Options{H: HPerProc, KPerLevel: 1})
	if len(res.Groups) != 3 {
		t.Errorf("HA*(k=1) groups = %d; want 3", len(res.Groups))
	}
}

func TestCondensationReducesExpansionsOnPEJobs(t *testing.T) {
	// Processes of a PE job are interchangeable, so condensation must
	// collapse their permutations.
	g := mixedGraph(t, 12, 1, 8, 4, 7, degradation.ModePC)
	plain := solveWith(t, g, Options{H: HPerProc})
	cond := solveWith(t, g, Options{H: HPerProc, Condense: true})
	if math.Abs(plain.Cost-cond.Cost) > eps {
		t.Fatalf("condensation changed the optimum: %v vs %v", plain.Cost, cond.Cost)
	}
	if cond.Stats.Generated >= plain.Stats.Generated {
		t.Errorf("condensation did not reduce generated elements: %d vs %d",
			cond.Stats.Generated, plain.Stats.Generated)
	}
}

func TestCondensationFiresOnPCJobs(t *testing.T) {
	// PC ranks stay raw in the class enumeration, so the node-level
	// condensation dedup (§III-E) must fire on them.
	g := mixedGraph(t, 12, 1, 8, 4, 7, degradation.ModePC)
	cond := solveWith(t, g, Options{H: HPerProc, Condense: true})
	if cond.Stats.Condensed == 0 {
		t.Error("condensation never fired on an 8-process PC job")
	}
}

func TestHAStarLargeScalePairwise(t *testing.T) {
	// The large-scale configuration of Figs. 12-13 in miniature: the
	// pairwise candidate generators must let HA* handle a batch whose
	// levels are far beyond full enumeration... here just big enough to
	// be meaningful.
	m := cache.QuadCore
	in, err := workload.SyntheticPairwiseInstance(96, &m, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(degradation.ModePC), nil)
	res := solveWith(t, g, Options{H: HPerProcAvg, KPerLevel: 24, UseIncumbent: true})
	if len(res.Groups) != 24 {
		t.Fatalf("groups = %d; want 24", len(res.Groups))
	}
}

func TestHPerProcAvgRejectedForOAStar(t *testing.T) {
	g := syntheticGraph(t, 8, 2, 1, degradation.ModePC)
	if _, err := NewSolver(g, Options{H: HPerProcAvg}); err == nil {
		t.Error("OA* accepted the inadmissible HPerProcAvg strategy")
	}
}

func TestHPerProcAvgQualityOnSmallInstance(t *testing.T) {
	// The inadmissible estimator must still land near the optimum when
	// the trimmed graph contains it.
	var worst float64
	for seed := int64(1); seed <= 6; seed++ {
		g := syntheticGraph(t, 12, 4, seed, degradation.ModePC)
		opt := solveWith(t, g, Options{H: HStrategy2})
		ha := solveWith(t, g, Options{H: HPerProcAvg, KPerLevel: 3})
		if ha.Cost < opt.Cost-eps {
			t.Fatalf("seed %d: HA*(avg) cost %v below optimum %v", seed, ha.Cost, opt.Cost)
		}
		if r := ha.Cost / opt.Cost; r > worst {
			worst = r
		}
	}
	if worst > 1.5 {
		t.Errorf("HA*(avg) worst-case ratio %v; want < 1.5", worst)
	}
}

func TestSolverRejectsBadConfigs(t *testing.T) {
	// Indivisible batch sizes are impossible by construction (builder
	// pads), so hand-roll a bad one.
	bd := job.NewBuilder()
	bd.AddSerial("a")
	bd.AddSerial("b")
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	mtx := [][]float64{{0, 0}, {0, 0}}
	o, err := degradation.NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := degradation.NewCost(b, o, degradation.ModePC)
	b.Cores = 3 // corrupt after construction
	if _, err := NewSolver(graph.New(c, nil), Options{}); err == nil {
		t.Error("solver accepted n not divisible by u")
	}
}

func TestMaxExpansionsAborts(t *testing.T) {
	g := syntheticGraph(t, 12, 4, 1, degradation.ModePC)
	s, err := NewSolver(g, Options{H: HNone, MaxExpansions: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatalf("expansion-limited search errored instead of degrading: %v", err)
	}
	if !res.Stats.Degraded || res.Stats.Aborted != abort.Expansions {
		t.Errorf("expansion-limited search not flagged degraded/expansions: %+v", res.Stats)
	}
	if res.Stats.VisitedPaths != 3 {
		t.Errorf("search popped %d elements, cap was 3", res.Stats.VisitedPaths)
	}
	if err := g.Cost.ValidatePartition(res.Groups); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g := syntheticGraph(t, 8, 2, 2, degradation.ModePC)
	res := solveWith(t, g, Options{H: HStrategy2})
	st := res.Stats
	if st.VisitedPaths <= 0 || st.Generated <= 0 || st.MaxQueue <= 0 || st.Duration <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestHStrategyString(t *testing.T) {
	for h, want := range map[HStrategy]string{
		HNone: "none", HStrategy1: "strategy1", HStrategy2: "strategy2", HPerProc: "perproc",
	} {
		if h.String() != want {
			t.Errorf("%d.String() = %q; want %q", h, h.String(), want)
		}
	}
	if HStrategy(9).String() == "" {
		t.Error("unknown strategy string empty")
	}
}

func TestDismissStrategyKeepsShortestSameSetSubpath(t *testing.T) {
	// The §III-C1 example: with node weights 11, 9, 9, 7, 4 on nodes
	// <1,5>,<1,6>,<2,3>,<4,5>,<4,6>, plain A* dismisses the sub-path
	// <1,5>,<2,3> (distance 20) in favour of <1,6>,<2,3> (18) and ends
	// at 25, while the optimal valid path <1,5>,<2,3>,<4,6> costs 24.
	// The set-keyed dismissal must recover 24.
	bd := job.NewBuilder()
	for i := 0; i < 6; i++ {
		bd.AddSerial("s")
	}
	b, err := bd.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	// Weights are on *nodes*; realise them through a pairwise matrix
	// where w(<i,j>) = m[i][j] + m[j][i]. Use m[i][j] = half the target
	// node weight for the five nodes of interest, and large values
	// elsewhere so the optimum uses only the paper's nodes.
	big := 100.0
	target := map[[2]int]float64{
		{1, 5}: 11, {1, 6}: 9, {2, 3}: 9, {4, 5}: 7, {4, 6}: 4,
	}
	n := b.NumProcs()
	mtx := make([][]float64, n)
	for i := range mtx {
		mtx[i] = make([]float64, n)
		for j := range mtx[i] {
			if i != j {
				mtx[i][j] = big
			}
		}
	}
	for k, w := range target {
		i, j := k[0]-1, k[1]-1
		mtx[i][j], mtx[j][i] = w/2, w/2
	}
	o, err := degradation.NewPairwiseOracle(b, mtx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(degradation.NewCost(b, o, degradation.ModePC), nil)
	res := solveWith(t, g, Options{H: HNone})
	if math.Abs(res.Cost-24) > eps {
		t.Errorf("shortest valid path cost = %v; want 24 (the paper's example)", res.Cost)
	}
}

// searchCounters are the Stats fields a sequential solve's search order
// decides.
type searchCounters struct {
	visited, expanded, generated, dismissed, dismissedWorse int64
	pruned, condensed                                       int64
	maxQueue                                                int
	inFrontier                                              int64
	keyTableEntries                                         int
}

// TestSequentialCountersPinned pins the sequential engine's counters on
// fixed solves of solve-exact's shape (condensed OA* on a PC mix),
// HA* at n = 16 with the incumbent, O-SVP's, Strategy 2 from each
// source but the pair bound (TestStrategy2PairBoundFallback's): the
// level table (all-serial OA*) and LevelStats (HA*, which has none), and
// Strategy 1's prepared sums under OA* and HA*. A
// dropped goal pop, or any change in what is admitted, dismissed or
// pruned, moves them, even where the cost and the admission identity
// hold. Re-record them only in a change meant to alter the search order
// (such as dominance labels replacing set-keyed dismissal), and say so.
func TestSequentialCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		opts Options
		cost float64
		want searchCounters
	}{
		{"oastar-pc-mix-seed1", mixedGraph(t, 16, 6, 2, 4, 1, degradation.ModePC),
			Options{H: HStrategy2, Condense: true}, 3.055092156,
			searchCounters{817, 816, 2439, 938, 18462, 1975, 22478, 1915, 685, 963}},
		{"oastar-pc-mix-seed7", mixedGraph(t, 16, 6, 2, 4, 7, degradation.ModePC),
			Options{H: HStrategy2, Condense: true}, 2.806869140,
			searchCounters{997, 996, 4355, 2286, 21384, 766, 23901, 3518, 1073, 1057}},
		{"hastar-n16-seed11", syntheticGraph(t, 16, 4, 11, degradation.ModePC),
			Options{H: HStrategy2, KPerLevel: 4, UseIncumbent: true, Condense: true}, 4.374429960,
			searchCounters{21, 20, 40, 15, 11, 2, 0, 20, 5, 21}},
		{"oastar-serial-n16-seed2", syntheticGraph(t, 16, 4, 2, degradation.ModePC),
			Options{H: HStrategy2, Condense: true}, 4.539022843,
			searchCounters{4122, 4121, 30109, 25149, 146379, 4809, 0, 22904, 839, 4167}},
		{"oastar-serial-n16-seed2-strategy1", syntheticGraph(t, 16, 4, 2, degradation.ModePC),
			Options{H: HStrategy1, Condense: true}, 4.539022843,
			searchCounters{4131, 4130, 39166, 33990, 138363, 3777, 0, 29866, 1046, 4166}},
		{"hastar-n16-seed11-strategy1", syntheticGraph(t, 16, 4, 11, degradation.ModePC),
			Options{H: HStrategy1, KPerLevel: 4, UseIncumbent: true, Condense: true}, 4.374429960,
			searchCounters{21, 20, 38, 14, 13, 2, 0, 20, 4, 21}},
		{"osvp-n12-seed1", syntheticGraph(t, 12, 4, 1, degradation.ModePC),
			Options{H: HNone}, 3.164632987,
			searchCounters{377, 376, 1892, 1474, 4258, 0, 0, 1707, 42, 377}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := solveWith(t, c.g, c.opts)
			st := res.Stats
			got := searchCounters{st.VisitedPaths, st.Expanded, st.Generated, st.Dismissed, st.DismissedWorse,
				st.Pruned, st.Condensed, st.MaxQueue, st.InFrontier, st.KeyTableEntries}
			if got != c.want {
				t.Errorf("counters %+v; want %+v", got, c.want)
			}
			if math.Abs(res.Cost-c.cost) > eps {
				t.Errorf("cost %.9f; want %.9f", res.Cost, c.cost)
			}
		})
	}
}

// TestWeightedHAStarNoWorseThanGreedy: a weighted HA* search cannot prune
// against its greedy incumbent, but it must still never answer with a
// costlier schedule than that incumbent, whether it completes or is cut
// short by an expansion cap.
func TestWeightedHAStarNoWorseThanGreedy(t *testing.T) {
	for n := 16; n <= 24; n += 4 {
		for seed := int64(1); seed <= 20; seed++ {
			g := syntheticGraph(t, n, 4, seed, degradation.ModePC)
			for _, w := range []float64{1.5, 2, 3, 5} {
				for _, cap := range []int64{0, 4, 6} {
					opts := Options{H: HStrategy2, KPerLevel: n / 4, UseIncumbent: true, Condense: true,
						HWeight: w, MaxExpansions: cap}
					s, err := NewSolver(g, opts)
					if err != nil {
						t.Fatal(err)
					}
					greedy := g.Cost.PartitionCost(s.greedySchedule())
					res, err := s.Solve()
					if err != nil {
						t.Fatal(err)
					}
					if res.Cost > greedy {
						t.Errorf("n=%d seed=%d w=%v cap=%d: cost %.6f above the greedy incumbent's %.6f",
							n, seed, w, cap, res.Cost, greedy)
					}
				}
			}
		}
	}
}
