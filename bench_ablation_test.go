package cosched

import (
	"testing"

	"cosched/internal/astar"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/experiments"
	"cosched/internal/graph"
	"cosched/internal/ip"
	"cosched/internal/job"
	"cosched/internal/pg"
	"cosched/internal/workload"
)

// Ablation benchmarks: the design-choice studies DESIGN.md §5 calls out,
// plus microbenchmarks of the hot components.

func benchAblation(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.RunOptions{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDismissal compares the paper's set-keyed dismissal
// with the exact-parallel dismissal.
func BenchmarkAblationDismissal(b *testing.B) { benchAblation(b, "ablation-dismissal") }

// BenchmarkAblationH compares the four admissible h(v) estimators.
func BenchmarkAblationH(b *testing.B) { benchAblation(b, "ablation-h") }

// BenchmarkAblationBeam sweeps HA*'s beam width at scale.
func BenchmarkAblationBeam(b *testing.B) { benchAblation(b, "ablation-beam") }

// BenchmarkAblationOracle measures the additive-pairwise approximation
// against the exact SDC oracle.
func BenchmarkAblationOracle(b *testing.B) { benchAblation(b, "ablation-oracle") }

// BenchmarkOAStarQuad16 measures one exact OA* solve on the Table I
// 16-job batch: the headline "optimal schedule in milliseconds" claim.
func BenchmarkOAStarQuad16(b *testing.B) {
	m := cache.QuadCore
	in, err := workload.TableIInstance(16, &m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(in.Cost(degradation.ModePC), in.Patterns)
		s, err := astar.NewSolver(g, astar.Options{H: astar.HPerProc, UseIncumbent: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHAStarLarge480 measures one large-scale HA* solve (the Fig. 13
// regime).
func BenchmarkHAStarLarge480(b *testing.B) {
	m := cache.QuadCore
	in, err := workload.SyntheticPairwiseInstance(480, &m, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(in.Cost(degradation.ModePC), nil)
		s, err := astar.NewSolver(g, astar.Options{
			H: astar.HPerProcAvg, HWeight: 1.2, KPerLevel: 120, BeamWidth: 16})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPG480 measures the politeness-greedy baseline at the same
// scale.
func BenchmarkPG480(b *testing.B) {
	m := cache.QuadCore
	in, err := workload.SyntheticPairwiseInstance(480, &m, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := in.Cost(degradation.ModePC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg.Solve(c)
	}
}

// BenchmarkIPModelBuild measures pricing the full set-partitioning model
// for a 16-process quad-core batch.
func BenchmarkIPModelBuild(b *testing.B) {
	m := cache.QuadCore
	in, err := workload.TableIInstance(16, &m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.BuildModel(in.Cost(degradation.ModePC)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSDCDegradationQuery measures one uncached SDC oracle query
// (four-way co-run).
func BenchmarkSDCDegradationQuery(b *testing.B) {
	m := cache.QuadCore
	in, err := workload.TableIInstance(16, &m)
	if err != nil {
		b.Fatal(err)
	}
	co := []job.ProcID{2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Oracle.Degradation(1, co)
	}
}

// BenchmarkAblationSymmetry measures the PE symmetry canonicalisation
// study.
func BenchmarkAblationSymmetry(b *testing.B) { benchAblation(b, "ablation-symmetry") }

// BenchmarkAblationWorkers measures the parallel best-first search study.
func BenchmarkAblationWorkers(b *testing.B) { benchAblation(b, "ablation-workers") }

// BenchmarkAblationOnline measures the online-policy vs offline-target
// study.
func BenchmarkAblationOnline(b *testing.B) { benchAblation(b, "ablation-online") }

// BenchmarkAblationSDC measures the SDC-vs-simulation accuracy study.
func BenchmarkAblationSDC(b *testing.B) { benchAblation(b, "ablation-sdc") }
