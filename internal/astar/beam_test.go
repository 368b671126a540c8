package astar

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/workload"
)

// beamDepthTable draws one beam depth's table: size elements with
// distinct random keys of stride words (each byte 0–3, so keys share
// prefixes) and g, h on a coarse grid, so that f = g + hw·h ties often
// and the key decides.
func beamDepthTable(rng *rand.Rand, size, stride int) []*element {
	seen := map[string]bool{}
	elems := make([]*element, 0, size)
	for len(elems) < size {
		key := make([]uint64, stride)
		for i := range key {
			for b := 0; b < 8; b++ {
				key[i] |= uint64(rng.Intn(4)) << (8 * b)
			}
		}
		if s := fmt.Sprint(key); !seen[s] {
			seen[s] = true
			elems = append(elems, &element{
				g:        float64(rng.Intn(6)) * 0.25,
				h:        float64(rng.Intn(4)) * 0.5,
				keyWords: key,
			})
		}
	}
	return elems
}

// TestBeamSurvivorsMatchSort pins beamSelect to the whole-table sort it
// replaced: over random depth tables with f-ties, fewer than BeamWidth
// elements, exactly BeamWidth and many more, the survivors must be the
// sorted table's first BeamWidth in the same order, and every other
// element must be handed to trim exactly once.
func TestBeamSurvivorsMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ties := 0
	for _, width := range []int{1, 2, 5, 16} {
		s := &Solver{opts: Options{BeamWidth: width}}
		for _, size := range []int{1, width - 1, width, width + 1, 3 * width, 900} {
			if size < 1 {
				continue
			}
			for _, hw := range []float64{1, 1.2} {
				for rep := 0; rep < 20; rep++ {
					name := fmt.Sprintf("width=%d size=%d hw=%v rep=%d", width, size, hw, rep)
					elems := beamDepthTable(rng, size, 1+rep%3)
					want := slices.Clone(elems)
					slices.SortFunc(want, func(a, b *element) int {
						fa, fb := a.g+hw*a.h, b.g+hw*b.h
						if fa != fb {
							if fa < fb {
								return -1
							}
							return 1
						}
						return compareKeyWords(a.keyWords, b.keyWords)
					})
					for i := 1; i < len(want); i++ {
						if want[i].g+hw*want[i].h == want[i-1].g+hw*want[i-1].h {
							ties++
						}
					}
					keep := min(width, size)
					trimmed := map[*element]int{}
					got := s.beamSelect(elems, hw, func(e *element) { trimmed[e]++ })
					if len(got) != keep {
						t.Fatalf("%s: %d survivors; want %d", name, len(got), keep)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: survivor %d is (g %v, h %v, key %v); the sort keeps (g %v, h %v, key %v)",
								name, i, got[i].g, got[i].h, got[i].keyWords, want[i].g, want[i].h, want[i].keyWords)
						}
					}
					if len(trimmed) != size-keep {
						t.Fatalf("%s: %d elements trimmed; want %d", name, len(trimmed), size-keep)
					}
					for _, e := range want[keep:] {
						if trimmed[e] != 1 {
							t.Fatalf("%s: a cut element was trimmed %d times", name, trimmed[e])
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no f-ties drawn; the key tie-break went unexercised")
	}
}

// beamCounters are the beam search's counters TestBeamCountersPinned
// pins, with the cost's bits.
type beamCounters struct {
	visited, expanded, generated, dismissed, dismissedWorse, beamTrimmed int64
	maxQueue                                                             int
	costBits                                                             uint64
}

// TestBeamCountersPinned is the beam's sibling of
// TestSequentialCountersPinned: it pins the counters and the cost bits of
// fixed pairwise beam solves in HA*'s large-batch configuration (HPerProcAvg,
// weight 1.2, 16 survivors per depth): n = 240 on quad-core at the default
// budget n/u (solve-large's shape, anchored depths giving way to walked
// ones), the same on 8-core, and a smooth n = 120 instance at a budget of
// 12, whose levels above smallLevel are walked. Any change in the
// candidates a depth generates, in their order or in their sums moves
// them.
func TestBeamCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
		want beamCounters
	}{
		{"pairwise-n240-quad-seed1", pairwiseGraphTB(t, 240, 4, 1), 60,
			beamCounters{945, 944, 53893, 538, 1112, 52410, 16, 0x4038e9ea62472a9e}},
		{"pairwise-n240-quad-seed7", pairwiseGraphTB(t, 240, 4, 7), 60,
			beamCounters{945, 944, 53844, 627, 1094, 52272, 16, 0x403a77682f313f50}},
		{"pairwise-n240-eight-seed1", pairwiseGraphTB(t, 240, 8, 1), 30,
			beamCounters{465, 464, 12930, 78, 182, 12387, 16, 0x40530987fda218ed}},
		{"smooth-n120-quad-seed3-k12", smoothGraphTB(t, 120, 4, 3), 12,
			beamCounters{461, 460, 1883, 322, 3473, 1100, 16, 0x40452f5c28f5c292}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := solveWith(t, c.g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: c.k})
			st := res.Stats
			got := beamCounters{st.VisitedPaths, st.Expanded, st.Generated, st.Dismissed, st.DismissedWorse,
				st.BeamTrimmed, st.MaxQueue, math.Float64bits(res.Cost)}
			if got != c.want {
				t.Errorf("counters %#v; want %#v", got, c.want)
			}
		})
	}
}

// TestBeamHugeKPerLevelAllocatesNoMore pins that what a beam depth
// reserves does not grow with KPerLevel past the nodes its parents'
// levels hold. At n = 56 on quad-core no level emits more than C(50, 3) =
// 19,600 nodes (anchored levels above smallLevel emit at most one node
// per available process), so budgets of 19,600 and 2^22 run the same
// search, shared group walks included, and must allocate about as much.
func TestBeamHugeKPerLevelAllocatesNoMore(t *testing.T) {
	g := pairwiseGraphTB(t, 56, 4, 1)
	solve := func(k int) (*Result, uint64) {
		s, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 4, KPerLevel: k})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := s.Solve()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return res, m1.TotalAlloc - m0.TotalAlloc
	}
	covering, coveringBytes := solve(19600)
	huge, hugeBytes := solve(1 << 22)
	if huge.Stats.Generated != covering.Stats.Generated || huge.Stats.Expanded != covering.Stats.Expanded ||
		math.Float64bits(huge.Cost) != math.Float64bits(covering.Cost) {
		t.Fatalf("k = 2^22 generated %d, expanded %d, cost %v; k = 19,600 %d, %d, %v: want the same search",
			huge.Stats.Generated, huge.Stats.Expanded, huge.Cost,
			covering.Stats.Generated, covering.Stats.Expanded, covering.Cost)
	}
	if hugeBytes > coveringBytes+coveringBytes/4 {
		t.Errorf("k = 2^22 allocated %d bytes; k = 19,600 allocated %d", hugeBytes, coveringBytes)
	}
	t.Logf("%d children generated; %d and %d bytes allocated", covering.Stats.Generated, coveringBytes, hugeBytes)
}

// smoothGraphTB builds the graph of a smooth pairwise instance (quantised
// pair costs, so equal weights abound) of n processes on u-core machines.
func smoothGraphTB(tb testing.TB, n, u int, seed int64) *graph.Graph {
	tb.Helper()
	m, err := cache.MachineByCores(u)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := workload.SyntheticPairwiseSmoothInstance(n, &m, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return graph.New(in.Cost(degradation.ModePC), in.Patterns)
}
