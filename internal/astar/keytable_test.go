package astar

import (
	"math/rand"
	"strings"
	"testing"

	"cosched/internal/bitset"
	"cosched/internal/cache"
	"cosched/internal/degradation"
	"cosched/internal/graph"
	"cosched/internal/workload"
)

// legacyKey rebuilds the string dismissal key the pre-word-packed solver
// used in its admit path: elementKey (set bytes, PE-masked + counts when
// symmetry canonicalisation is on) plus, under ExactParallel, the raw
// Float64bits of the per-parallel-job maxima.
func (s *Solver) legacyKey(set *bitset.Set, jobMax []float64) string {
	key := s.elementKey(set)
	if s.keyJobWords > 0 {
		key += jobMaxKey(jobMax)
	}
	return key
}

// randomKeyInputs draws a pool of (set, jobMax) pairs for the solver's
// capacities, with deliberate duplicates so the equality side of the
// property is exercised, not just the inequality side.
func randomKeyInputs(s *Solver, rng *rand.Rand, count int) ([]*bitset.Set, [][]float64) {
	palette := []float64{0, 0.25, 1.5} // few distinct values → jobMax collisions
	sets := make([]*bitset.Set, 0, count)
	maxes := make([][]float64, 0, count)
	for i := 0; i < count; i++ {
		var set *bitset.Set
		var jm []float64
		if i > 0 && rng.Intn(3) == 0 {
			// Duplicate an earlier set (sometimes with the same jobMax).
			j := rng.Intn(i)
			set = sets[j].Clone()
			if rng.Intn(2) == 0 && maxes[j] != nil {
				jm = append([]float64(nil), maxes[j]...)
			}
		} else {
			set = bitset.New(s.n)
			for v := 1; v <= s.n; v++ {
				if rng.Intn(2) == 0 {
					set.Add(v)
				}
			}
		}
		if jm == nil && len(s.parJobs) > 0 {
			jm = make([]float64, len(s.parJobs))
			for k := range jm {
				jm[k] = palette[rng.Intn(len(palette))]
			}
		}
		sets = append(sets, set)
		maxes = append(maxes, jm)
	}
	return sets, maxes
}

// TestPackedKeyMatchesLegacyStrings is the key-equivalence property test:
// across random process sets (and per-job maxima), the word-packed keys
// collide exactly when the legacy string keys were equal, and
// compareKeyWords orders them exactly as byte-lexicographic string
// comparison did — covering plain serial keys, PE-symmetry count suffixes
// and the ExactParallel jobMax extension.
func TestPackedKeyMatchesLegacyStrings(t *testing.T) {
	peGraph := func(t *testing.T) *graph.Graph {
		m := cache.QuadCore
		rng := rand.New(rand.NewSource(7))
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
		return graph.New(in.Cost(degradation.ModePE), in.Patterns)
	}

	cases := []struct {
		name  string
		build func(t *testing.T) *graph.Graph
		opts  Options
	}{
		{
			name:  "serial-plain",
			build: func(t *testing.T) *graph.Graph { return syntheticGraph(t, 70, 2, 11, degradation.ModePC) },
			opts:  Options{H: HPerProc},
		},
		{
			name:  "pe-symmetry-counts",
			build: peGraph,
			opts:  Options{H: HPerProc, Condense: true},
		},
		{
			name:  "exact-parallel-jobmax",
			build: func(t *testing.T) *graph.Graph { return mixedGraph(t, 12, 2, 3, 4, 5, degradation.ModePE) },
			opts:  Options{H: HPerProc, ExactParallel: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			sv, err := NewSolver(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.name {
			case "pe-symmetry-counts":
				if sv.peAll == nil {
					t.Fatal("test premise broken: no PE symmetry masks")
				}
			case "exact-parallel-jobmax":
				if sv.keyJobWords == 0 {
					t.Fatal("test premise broken: no ExactParallel jobMax words")
				}
			}
			rng := rand.New(rand.NewSource(42))
			sets, maxes := randomKeyInputs(sv, rng, 60)
			legacy := make([]string, len(sets))
			packed := make([][]uint64, len(sets))
			for i := range sets {
				legacy[i] = sv.legacyKey(sets[i], maxes[i])
				packed[i] = sv.packKey(nil, sets[i], maxes[i])
				if len(packed[i]) != sv.keyStride {
					t.Fatalf("packed key length %d != keyStride %d", len(packed[i]), sv.keyStride)
				}
			}
			sawEqual, sawLess := false, false
			for i := 0; i < len(sets); i++ {
				for j := 0; j < len(sets); j++ {
					cmp := compareKeyWords(packed[i], packed[j])
					strCmp := strings.Compare(legacy[i], legacy[j])
					if (cmp == 0) != (strCmp == 0) {
						t.Fatalf("pair (%d,%d): packed equal=%v, legacy equal=%v", i, j, cmp == 0, strCmp == 0)
					}
					if (cmp < 0) != (strCmp < 0) {
						t.Fatalf("pair (%d,%d): packed order %d, legacy order %d", i, j, cmp, strCmp)
					}
					if i != j && cmp == 0 {
						sawEqual = true
					}
					if cmp < 0 {
						sawLess = true
					}
				}
			}
			if !sawEqual || !sawLess {
				t.Fatalf("degenerate sample: sawEqual=%v sawLess=%v", sawEqual, sawLess)
			}
		})
	}
}

// TestPackedKeyHashConsistency pins the hash/table contract: equal keys
// find each other through gTable, distinct keys never do.
func TestPackedKeyHashConsistency(t *testing.T) {
	g := syntheticGraph(t, 40, 4, 3, degradation.ModePC)
	sv, err := NewSolver(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sets, maxes := randomKeyInputs(sv, rng, 50)
	table := newGTable(sv.keyStride)
	type entry struct {
		key string
		ref int32
	}
	var inserted []entry
	for i := range sets {
		key := sv.packKey(nil, sets[i], maxes[i])
		legacy := sv.legacyKey(sets[i], maxes[i])
		h := hashKeyWords(key)
		ref := table.find(key, h)
		want := int32(-1)
		for _, e := range inserted {
			if e.key == legacy {
				want = e.ref
				break
			}
		}
		if ref != want {
			t.Fatalf("input %d: find = %d; want %d", i, ref, want)
		}
		if ref < 0 {
			ref = table.insert(key, h, float64(i), nil)
			inserted = append(inserted, entry{key: legacy, ref: ref})
		}
	}
	if table.count >= len(sets) {
		t.Fatal("degenerate sample: no duplicate keys exercised find")
	}
}
