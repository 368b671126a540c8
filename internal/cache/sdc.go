package cache

// Stack Distance Competition (SDC) co-run cache model [14].
//
// When several processes share a cache, SDC builds a merged stack distance
// profile: walking the stack positions of the shared cache from most- to
// least-recently-used, at every position the process with the highest
// remaining hit rate wins the position. After the walk, each process's
// effective cache space is the number of positions it won; accesses whose
// stack distance exceeds that share become misses.

// Compete runs the SDC competition among the given co-running profiles
// for a cache with the given associativity. It writes into eff[i] the
// number of ways profile i effectively occupies and reports whether a tie
// decided any position. eff must be as long as profiles; the caller owns
// it, so the competition allocates nothing.
//
// Each profile competes with its own hit counters in stack-distance order
// (a process cannot win position d+1 before winning position d, mirroring
// the inclusion property of LRU stacks), so eff[i] is also the position
// profile i competes for next. A position two profiles tie for, with
// equal hit rates, goes to the earlier profile. Without a tie every step
// has a unique winner, so every ordering of the same profiles yields the
// same shares; with one, they may depend on the order. The node-level
// SDC oracle relies on both halves (degradation.SDCOracle, DESIGN.md §5c).
func Compete(profiles []*Profile, ways int, eff []int) (tied bool) {
	clear(eff)
	if ways <= 0 {
		return false
	}
	remaining := ways
	// MRU guarantee: a running process always retains at least its
	// most-recently-used way under LRU, so when the cache has enough
	// ways every co-runner with measured reuse is granted one way before
	// the competition. Without this, a low-appetite (compute-bound)
	// process is starved to zero cache by any memory-intensive
	// neighbour, which real hardware does not do.
	if len(profiles) <= ways {
		for i, p := range profiles {
			if len(p.Hits) > 0 {
				eff[i] = 1
				remaining--
			}
		}
	}
	for pos := 0; pos < remaining; pos++ {
		best, tie := -1, false
		bestRate := -1.0
		for i, p := range profiles {
			if eff[i] >= len(p.Hits) {
				continue
			}
			switch r := p.Hits[eff[i]]; {
			case r > bestRate:
				best, bestRate, tie = i, r, false
			case r == bestRate:
				tie = true
			}
		}
		if best < 0 {
			break // every profile exhausted its measured positions
		}
		tied = tied || tie
		eff[best]++
	}
	return tied
}

// EffectiveWays runs Compete and returns the effective ways of each
// profile, index-aligned with profiles. The earlier-profile tie-break is
// part of the contract and matters for correctness: the same co-runners
// listed in another order may get other shares, though only when a tie
// decided a position, and the SDC oracle's node-level answers are exact
// only because it detects those ties and then gives each member its own
// competition.
func EffectiveWays(profiles []*Profile, ways int) []int {
	eff := make([]int, len(profiles))
	Compete(profiles, ways, eff)
	return eff
}
