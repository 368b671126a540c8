package degradation

import (
	"math/rand"
	"testing"

	"cosched/internal/cache"
	"cosched/internal/job"
)

// perMemberSDC is the reference SDCOracle.nodeCosts must reproduce bit
// for bit: each member's own competition, its profile listed first and
// the rest of the node after it in ascending ID order, nil profiles
// standing for imaginary processes.
func perMemberSDC(o *SDCOracle, sorted []job.ProcID) []float64 {
	out := make([]float64, len(sorted))
	for j, p := range sorted {
		group := []*cache.Profile{o.Profile(p)}
		for k, q := range sorted {
			if k != j {
				group = append(group, o.Profile(q))
			}
		}
		out[j] = cache.CoRunDegradations(o.Machine(), group)[0]
	}
	return out
}

// oneCompetition is what nodeCosts would answer if it never fell back:
// every member read from the one competition over the node's live
// profiles in ascending order.
func oneCompetition(o *SDCOracle, sorted []job.ProcID) []float64 {
	var group []*cache.Profile
	for _, p := range sorted {
		if prof := o.Profile(p); prof != nil {
			group = append(group, prof)
		}
	}
	eff := cache.EffectiveWays(group, o.Machine().Ways)
	out := make([]float64, len(sorted))
	live := 0
	for j, p := range sorted {
		if prof := o.Profile(p); prof != nil {
			out[j] = cache.CoRunDegradation(o.Machine(), prof, eff[live])
			live++
		}
	}
	return out
}

// tieProneOracle builds an SDC oracle over n serial processes on u cores
// (padded with imaginary processes to a multiple of u) and a machine with
// the given associativity. Every process draws one of three template
// profiles, the way the ranks of one parallel job share a program, with
// hit rates from {0, 1, 2, 3} and between 1 and ways+2 measured
// positions, so equal hit rates meet often and some profiles run out of
// positions before the cache does.
func tieProneOracle(t *testing.T, rng *rand.Rand, n, u, ways int) *SDCOracle {
	t.Helper()
	b := serialBatch(t, n, u)
	m := cache.QuadCore
	m.Cores, m.Ways = u, ways
	templates := make([]*cache.Profile, 3)
	for i := range templates {
		hits := make([]float64, 1+rng.Intn(ways+2))
		for d := range hits {
			hits[d] = float64(rng.Intn(4))
		}
		templates[i] = &cache.Profile{Name: "t", Hits: hits, Beyond: float64(1 + rng.Intn(3)), BaseCycles: 1e9}
	}
	profiles := make([]*cache.Profile, b.NumProcs())
	for i := range b.Procs {
		if !b.Procs[i].Imaginary {
			profiles[i] = templates[rng.Intn(len(templates))]
		}
	}
	o, err := NewSDCOracle(b, &m, profiles, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestSDCNodeCostsMatchPerMember checks the node-level SDC answers, read
// through the memo in a shuffled member order, against each member's own
// competition: u = 2, 4 and 8 (and 10-member nodes the memo key cannot
// hold), associativity below and above the node size (the MRU guarantee
// off and on), imaginary members, profiles whose positions run out, and
// tie-prone hit rates. It also requires that some
// nodes needed the tie fallback, so the comparison has teeth.
func TestSDCNodeCostsMatchPerMember(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nodes, fallbacks := 0, 0
	for _, u := range []int{2, 4, 8} {
		for _, ways := range []int{u / 2, u - 1, u, u + 1, 16} {
			if ways < 1 {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				o := tieProneOracle(t, rng, 2*u+1+rng.Intn(u), u, ways)
				c := NewCost(o.batch, o, ModePE)
				n := o.batch.NumProcs()
				for q := 0; q < 8; q++ {
					k := u
					if u == 8 && q%2 == 1 {
						k = 10 // past the memo key: answered uncached
					}
					node := make([]job.ProcID, 0, k)
					for _, i := range rng.Perm(n)[:k] {
						node = append(node, job.ProcID(i+1))
					}
					sorted := job.SortedProcIDs(node)
					want := perMemberSDC(o, sorted)
					nodes++
					got := c.NodeCosts(nil, node)
					for i, p := range node {
						j := 0
						for sorted[j] != p {
							j++
						}
						if got[i] != want[j] {
							t.Fatalf("u=%d ways=%d node %v: member %d = %v; its own competition says %v", u, ways, sorted, p, got[i], want[j])
						}
					}
					for j, d := range oneCompetition(o, sorted) {
						if d != want[j] {
							fallbacks++
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d nodes needed the tie fallback", fallbacks, nodes)
	if fallbacks == 0 {
		t.Error("no node needed the tie fallback; the test cannot tell a node-level answer from a per-member one")
	}
}

// TestSDCNodeCostsTieGoesToEachMember pins the tie fallback on the
// smallest case: two identical profiles sharing a 3-way cache. Each gets
// one way from the MRU guarantee, and they tie for the third. Listed
// first in its own query, each member wins that tie, so each member's
// answer is the 2-way degradation, not the 1-way one the second-listed
// member gets in a shared competition.
func TestSDCNodeCostsTieGoesToEachMember(t *testing.T) {
	b := serialBatch(t, 2, 2)
	m := cache.DualCore
	m.Ways = 3
	prof := &cache.Profile{Name: "twin", Hits: []float64{1, 1, 1}, Beyond: 1, BaseCycles: 1e9}
	o, err := NewSDCOracle(b, &m, []*cache.Profile{prof, prof}, nil)
	if err != nil {
		t.Fatal(err)
	}
	won, lost := cache.CoRunDegradation(&m, prof, 2), cache.CoRunDegradation(&m, prof, 1)
	if won == lost {
		t.Fatal("the third way does not change the degradation; the case pins nothing")
	}
	for _, mode := range []Mode{ModeSE, ModePC} {
		got := NewCost(b, o, mode).NodeCosts(nil, []job.ProcID{2, 1})
		if got[0] != won || got[1] != won {
			t.Errorf("mode %v: node costs %v; each twin wins its own tie, want %v for both", mode, got, won)
		}
	}
}

// TestSDCOracleDegradationAllocationFree guards the per-member query:
// the profile list and the competition's shares live on the stack.
func TestSDCOracleDegradationAllocationFree(t *testing.T) {
	for _, u := range []int{4, 8} {
		_, o := testInstance(t, u)
		co := []job.ProcID{2, 3, 4, 5, 6, 7, 8}[:u-1]
		if o.Degradation(1, co) == 0 {
			t.Fatalf("u=%d: process 1 suffers no degradation from %v", u, co)
		}
		if allocs := testing.AllocsPerRun(100, func() { o.Degradation(1, co) }); allocs != 0 {
			t.Errorf("u=%d: SDCOracle.Degradation costs %.1f allocs; want 0", u, allocs)
		}
	}
}

// TestSDCMemoMissAllocationFree guards the node memo's miss path on the
// SDC oracle: one competition for the node, stack scratch throughout,
// the Eq. 9 communication terms included.
func TestSDCMemoMissAllocationFree(t *testing.T) {
	for _, u := range []int{4, 8} {
		b, o := testInstance(t, u)
		c := NewCost(b, o, ModePC)
		sorted := []job.ProcID{1, 2, 3, 4, 5, 6, 7, 8}[:u]
		out := make([]float64, u)
		if allocs := testing.AllocsPerRun(100, func() { c.computeSorted(out, sorted) }); allocs != 0 {
			t.Errorf("u=%d: an SDC memo miss costs %.1f allocs; want 0", u, allocs)
		}
	}
}
