package integration

import (
	"math"
	"math/rand"
	"testing"

	"cosched/internal/astar"
	"cosched/internal/bruteforce"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/ip"
	"cosched/internal/job"
	"cosched/internal/pg"
	"cosched/internal/workload"
)

const eps = 1e-6

// randomInstance draws a random small mixed instance: a few serial jobs,
// possibly a PE and/or a PC job, on a random machine class.
func randomInstance(t *testing.T, seed int64) (*workload.Instance, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := []int{2, 4}[rng.Intn(2)]
	m, err := cache.MachineByCores(u)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.NewSpec()
	total := 0
	if rng.Intn(2) == 0 {
		k := 2 + rng.Intn(3)
		spec.AddPE(workload.SyntheticProgram("pe", rng), k)
		total += k
	}
	if rng.Intn(2) == 0 {
		k := 2 + rng.Intn(3)
		spec.AddPC(workload.SyntheticProgram("pc", rng), k, nil)
		total += k
	}
	for total < 8+rng.Intn(3) {
		spec.AddSerial(workload.SyntheticProgram("s", rng))
		total++
	}
	in, err := spec.Build(&m)
	if err != nil {
		t.Fatal(err)
	}
	return in, u
}

func TestAllExactMethodsAgree(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		in, u := randomInstance(t, seed)
		for _, mode := range []degradation.Mode{degradation.ModeSE, degradation.ModePE, degradation.ModePC} {
			c := in.Cost(mode)
			bf, err := bruteforce.Solve(c)
			if err != nil {
				t.Fatalf("seed %d mode %v: brute force: %v", seed, mode, err)
			}

			// OA* with the exact-parallel dismissal key.
			g := graph.New(c, in.Patterns)
			s, err := astar.NewSolver(g, astar.Options{
				H: astar.HPerProc, Condense: true, UseIncumbent: true, ExactParallel: true})
			if err != nil {
				t.Fatal(err)
			}
			oa, err := s.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(oa.Cost-bf.Cost) > eps {
				t.Errorf("seed %d u=%d mode %v: OA* %v != optimum %v", seed, u, mode, oa.Cost, bf.Cost)
			}
			if err := c.ValidatePartition(oa.Groups); err != nil {
				t.Errorf("seed %d mode %v: OA*: %v", seed, mode, err)
			}

			// IP branch-and-bound.
			model, err := ip.BuildModel(c)
			if err != nil {
				t.Fatal(err)
			}
			ipRes, err := ip.Solve(model, ip.ConfigA)
			if err != nil {
				t.Fatalf("seed %d mode %v: IP: %v", seed, mode, err)
			}
			if math.Abs(ipRes.Cost-bf.Cost) > eps {
				t.Errorf("seed %d u=%d mode %v: IP %v != optimum %v", seed, u, mode, ipRes.Cost, bf.Cost)
			}
		}
	}
}

func TestHeuristicsFeasibleAndBounded(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		in, _ := randomInstance(t, 100+seed)
		c := in.Cost(degradation.ModePC)
		bf, err := bruteforce.Solve(c)
		if err != nil {
			t.Fatal(err)
		}

		g := graph.New(c, in.Patterns)
		n, u := g.N(), g.U()
		ha, err := astar.NewSolver(g, astar.Options{
			H: astar.HPerProc, KPerLevel: n / u, Condense: true, UseIncumbent: true})
		if err != nil {
			t.Fatal(err)
		}
		haRes, err := ha.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ValidatePartition(haRes.Groups); err != nil {
			t.Errorf("seed %d: HA*: %v", seed, err)
		}
		if haRes.Cost < bf.Cost-eps {
			t.Errorf("seed %d: HA* %v beat the optimum %v", seed, haRes.Cost, bf.Cost)
		}

		pgRes := pg.Solve(c)
		if err := c.ValidatePartition(pgRes.Groups); err != nil {
			t.Errorf("seed %d: PG: %v", seed, err)
		}
		if pgRes.Cost < bf.Cost-eps {
			t.Errorf("seed %d: PG %v beat the optimum %v", seed, pgRes.Cost, bf.Cost)
		}
	}
}

func TestOSVPAgreesOnSerialBatches(t *testing.T) {
	m := cache.QuadCore
	for seed := int64(1); seed <= 6; seed++ {
		in, err := workload.SyntheticSerialInstance(12, &m, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := in.Cost(degradation.ModePC)
		bf, err := bruteforce.Solve(c)
		if err != nil {
			t.Fatal(err)
		}
		res := solveOSVP(t, graph.New(c, nil))
		if math.Abs(res.Cost-bf.Cost) > eps {
			t.Errorf("seed %d: O-SVP %v != optimum %v", seed, res.Cost, bf.Cost)
		}
	}
}

// solveOSVP runs the O-SVP baseline [33]: the graph search with h = 0.
func solveOSVP(t *testing.T, g *graph.Graph) *astar.Result {
	t.Helper()
	s, err := astar.NewSolver(g, astar.Options{H: astar.HNone})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOSVPMatchesOAStarOnMixedBatch(t *testing.T) {
	m := cache.QuadCore
	in, err := workload.SyntheticMixedInstance(12, 2, 3, &m, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
	res := solveOSVP(t, g)
	s, err := astar.NewSolver(g, astar.Options{H: astar.HStrategy2})
	if err != nil {
		t.Fatal(err)
	}
	oa, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-oa.Cost) > 1e-9 {
		t.Errorf("O-SVP %v != OA* %v", res.Cost, oa.Cost)
	}
}

func TestSmoothAndNoisyPopulationsDiffer(t *testing.T) {
	m := cache.QuadCore
	smooth, err := workload.SyntheticPairwiseSmoothInstance(24, &m, 5)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := workload.SyntheticPairwiseInstance(24, &m, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The noisy population must have visibly larger pair-degradation
	// dispersion than the smooth one.
	disp := func(in *workload.Instance) float64 {
		var lo, hi = math.Inf(1), 0.0
		for i := 1; i <= 24; i++ {
			for j := 1; j <= 24; j++ {
				if i == j {
					continue
				}
				d := in.Oracle.Degradation(job.ProcID(i), []job.ProcID{job.ProcID(j)})
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
		}
		return hi / lo
	}
	if ds, dn := disp(smooth), disp(noisy); dn < ds*1.5 {
		t.Errorf("noisy dispersion %v not clearly above smooth %v", dn, ds)
	}
}
