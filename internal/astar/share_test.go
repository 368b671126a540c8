package astar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosched/internal/job"
)

// depthParent builds a beam parent whose unscheduled processes are leader
// and avail: every other process is in its set.
func depthParent(s *Solver, leader job.ProcID, avail []job.ProcID) *element {
	e := s.pool.get()
	e.set.Clear()
	for p := 1; p <= s.n; p++ {
		e.set.Add(p)
	}
	e.set.Remove(int(leader))
	for _, p := range avail {
		e.set.Remove(int(p))
	}
	e.q = s.n - len(avail) - 1
	e.node = e.node[:0]
	return e
}

// sharedDepthParents draws parents of one beam depth that share a leader:
// the leader and a union of size processes above it, each parent's
// availability the union less a random subset of 0–12 of its processes.
// A search's parents differ so, in the processes their last nodes
// scheduled.
func sharedDepthParents(rng *rand.Rand, s *Solver, leader job.ProcID, size, parents int) ([]*element, [][]job.ProcID) {
	union := make([]job.ProcID, size)
	inUnion := make([]bool, s.n+1)
	for i, q := range rng.Perm(s.n - int(leader))[:size] {
		union[i] = leader + 1 + job.ProcID(q)
		inUnion[union[i]] = true
	}
	var elems []*element
	var avails [][]job.ProcID
	for range parents {
		drop := map[job.ProcID]bool{}
		for range rng.Intn(min(13, size+1)) {
			drop[union[rng.Intn(size)]] = true
		}
		var avail []job.ProcID
		for p := leader + 1; int(p) <= s.n; p++ {
			if inUnion[p] && !drop[p] {
				avail = append(avail, p)
			}
		}
		elems = append(elems, depthParent(s, leader, avail))
		avails = append(avails, avail)
	}
	return elems, avails
}

// childSums collects the nodes one generator run emits for parent e,
// copied, with the Eq. 13 distance of the child each node makes.
func childSums(s *Solver, e *element, run func(fn func(node []job.ProcID, costs []float64))) ([][]job.ProcID, []uint64) {
	var nodes [][]job.ProcID
	var gs []uint64
	run(func(node []job.ProcID, costs []float64) {
		nodes = append(nodes, append([]job.ProcID(nil), node...))
		child := s.makeChild(e, node, costs)
		gs = append(gs, math.Float64bits(child.g))
		s.recycle(child)
	})
	return nodes, gs
}

// TestSharedCandidatesMatchPerParent pins the beam's shared candidate
// generation to the per-parent generators it stands in for. Random beam
// depths of parents sharing a leader (availabilities a union less 0–12
// processes each, with a lone parent of another leader and, once, more
// parents than a group holds) are grouped once; then every parent, in
// order, is served from its group by depthCandidates and, right after,
// by forEachCandidate on its own availability, whose scratch use must not
// disturb the group's. Both must emit the same nodes in the same order,
// and the children they make the same Eq. 13 distance bit for bit. The
// depths cover the noisy, smooth and tenths populations, union sizes on
// both sides of smallLevel (anchored and walked parents in one group
// among them), budgets from 1 past exactWalkMaxK, at u = 4 (n = 238 pads
// with imaginary processes, whose zero pair costs tie picks) and at
// u = 8, where the beam keeps the per-parent generators but the grouping
// is driven directly so the longer stream chains run too.
func TestSharedCandidatesMatchPerParent(t *testing.T) {
	var anchored, walked, walks, mixed, lone, nodes int
	for _, pop := range generatorPops {
		for _, c := range []struct {
			n, u  int
			sizes []int
		}{
			{240, 4, []int{8, 45, 56, 120, 200}},
			{238, 4, []int{45, 56, 200}},
			{240, 8, []int{12, 20, 26, 60, 200}},
		} {
			n := c.n
			seed := int64(31*c.u + c.n + len(pop.name))
			s := generatorSolver(t, pop.build, n, c.u, seed)
			rng := rand.New(rand.NewSource(seed))
			for _, size := range c.sizes {
				for _, k := range []int{1, 3, exactWalkMaxK, exactWalkMaxK + 1, n / c.u} {
					s.opts.KPerLevel = k
					leader := job.ProcID(1 + rng.Intn(n-size-1))
					parents := 2 + rng.Intn(15)
					if size == c.sizes[0] && k == 1 {
						parents = maxGroup + 6
					}
					elems, avails := sharedDepthParents(rng, s, leader, size, parents)
					// A lone parent under another leader takes the
					// per-parent generators between the group's parents.
					other := leader + 1 + job.ProcID(rng.Intn(n-int(leader)-size))
					var avail []job.ProcID
					for p := other + 1; int(p) <= n; p++ {
						if rng.Intn(2) == 0 {
							avail = append(avail, p)
						}
					}
					at := rng.Intn(len(elems) + 1)
					elems = append(elems[:at], append([]*element{depthParent(s, other, avail)}, elems[at:]...)...)
					avails = append(avails[:at], append([][]job.ProcID{avail}, avails[at:]...)...)
					s.groupDepth(elems)
					for i, e := range elems {
						lead := job.ProcID(e.set.SmallestAbsent(n))
						name := fmt.Sprintf("%s u=%d |U|=%d k=%d parent %d/%d (leader %d, %d available)",
							pop.name, c.u, size, k, i, len(elems), lead, len(avails[i]))
						var st Stats
						got, gotG := childSums(s, e, func(fn func([]job.ProcID, []float64)) {
							s.depthCandidates(i, e, lead, &st, fn)
						})
						want, wantG := childSums(s, e, func(fn func([]job.ProcID, []float64)) {
							s.forEachCandidate(e, lead, avails[i], &st, fn)
						})
						sameNodeSequence(t, name, got, want)
						for j := range gotG {
							if gotG[j] != wantG[j] {
								t.Fatalf("%s: node %v makes a child at g bits %#x; per parent %#x", name, got[j], gotG[j], wantG[j])
							}
						}
						nodes += len(got)
						sl := s.scr.share.slot[i]
						switch {
						case sl < 0 || s.scr.share.groups[sl/maxGroup].parents < 2:
							lone++
						case s.walksLevel(len(avails[i]), k):
							walked++
						default:
							anchored++
						}
					}
					for _, g := range s.scr.share.groups[:s.scr.share.used] {
						if !g.walked {
							continue
						}
						walks++
						if g.walkers != 1<<g.parents-1 {
							mixed++
						}
					}
					for _, e := range elems {
						s.recycle(e)
					}
				}
			}
		}
	}
	if anchored == 0 || walked == 0 || mixed == 0 || lone == 0 {
		t.Fatalf("served %d anchored and %d walked parents from groups (%d group walks, %d of them for part of a group), served %d parents alone; want each kind",
			anchored, walked, walks, mixed, lone)
	}
	t.Logf("%d anchored and %d walked shared parents, %d group walks (%d for part of a group), %d lone parents, %d nodes", anchored, walked, walks, mixed, lone, nodes)
}

// TestSharedCandidatesAllocationFree is the shared generation's
// allocation guard, in solve-large's configuration (pairwise oracle,
// n = 240, quad-core, k = 60): once a depth of 16 parents sharing a
// leader has run, grouping the same depth again and serving every parent
// from its group allocates nothing, on an anchored depth (223 to 235
// available) and on a walked one (38 to 50).
func TestSharedCandidatesAllocationFree(t *testing.T) {
	g := pairwiseGraphTB(t, 240, 4, 1)
	sv, err := NewSolver(g, Options{H: HPerProcAvg, HWeight: 1.2, BeamWidth: 16, KPerLevel: 60})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		size int
	}{{"anchored", 235}, {"walked", 50}} {
		elems, avails := sharedDepthParents(rng, sv, 3, c.size, 16)
		emitted := 0
		depth := func() {
			emitted = 0
			sv.shareDepth(elems)
			for i, e := range elems {
				var st Stats
				sv.depthCandidates(i, e, 3, &st, func([]job.ProcID, []float64) { emitted++ })
			}
		}
		depth() // warm: builds the leader's order and sizes the group's scratch
		if sv.scr.share.used != 1 || sv.scr.share.groups[0].parents != 16 {
			t.Fatalf("%s: the depth formed %d groups; want one of 16 parents", c.name, sv.scr.share.used)
		}
		if emitted != 16*60 {
			t.Fatalf("%s: the depth emitted %d candidates; want 16 × 60", c.name, emitted)
		}
		for i, avail := range avails {
			if walks := sv.walksLevel(len(avail), 60); walks != (c.name == "walked") {
				t.Fatalf("%s: parent %d (%d available) walks its level: %v", c.name, i, len(avail), walks)
			}
		}
		if allocs := testing.AllocsPerRun(10, depth); allocs != 0 {
			t.Errorf("%s: a depth costs %.1f allocs; want 0", c.name, allocs)
		}
	}
}

// TestSharedAnchoredMatchesPerParentPairs pins the shared anchored picks
// at u = 2, where an anchor alone completes a node: on dual-core machines
// every parent of a group, served by sharedAnchored directly (the beam
// walks such levels unless they hold more than smallLevel nodes), must
// emit exactly anchoredCandidates' nodes on its own availability, in
// order, with the same Eq. 13 distances, and take no pick.
func TestSharedAnchoredMatchesPerParentPairs(t *testing.T) {
	nodes := 0
	for _, pop := range generatorPops {
		n := 120
		s := generatorSolver(t, pop.build, n, 2, 7)
		rng := rand.New(rand.NewSource(7))
		for _, size := range []int{3, 40, 100} {
			for _, k := range []int{1, 5, n / 2} {
				s.opts.KPerLevel = k
				leader := job.ProcID(1 + rng.Intn(n-size-1))
				elems, avails := sharedDepthParents(rng, s, leader, size, 2+rng.Intn(15))
				s.groupDepth(elems)
				sh := &s.scr.share
				for i, e := range elems {
					name := fmt.Sprintf("%s u=2 |U|=%d k=%d parent %d/%d", pop.name, size, k, i, len(elems))
					sl := sh.slot[i]
					g := &sh.groups[sl/maxGroup]
					if g.parents < 2 {
						t.Fatalf("%s: the parent shares no group", name)
					}
					bit := uint64(1) << (sl % maxGroup)
					got, gotG := childSums(s, e, func(fn func([]job.ProcID, []float64)) {
						s.sharedAnchored(g, bit, k, fn)
					})
					want, wantG := childSums(s, e, func(fn func([]job.ProcID, []float64)) {
						s.anchoredCandidates(leader, avails[i], k, func(node []job.ProcID) { fn(node, nil) })
					})
					sameNodeSequence(t, name, got, want)
					for j := range gotG {
						if gotG[j] != wantG[j] {
							t.Fatalf("%s: node %v makes a child at g bits %#x; per parent %#x", name, got[j], gotG[j], wantG[j])
						}
					}
					nodes += len(got)
				}
				if len(sh.streams) != 0 {
					t.Fatalf("%s u=2 |U|=%d k=%d: built %d pick streams; an anchor completes a node", pop.name, size, k, len(sh.streams))
				}
				for _, e := range elems {
					s.recycle(e)
				}
			}
		}
	}
	if nodes == 0 {
		t.Fatal("no parent emitted a node")
	}
	t.Logf("%d nodes", nodes)
}
