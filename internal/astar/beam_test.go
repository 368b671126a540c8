package astar

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
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
