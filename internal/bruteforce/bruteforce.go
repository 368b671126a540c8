// Package bruteforce enumerates every partition of a batch into
// u-cardinality machine groups and returns the Eq. 13 optimum. It is the
// verification oracle for OA*, HA*, O-SVP, PG and the IP method on small
// instances (feasible up to roughly 16 processes on quad-core machines:
// C(15,3)·C(11,3)·C(7,3) ≈ 2.6M partitions).
package bruteforce

import (
	"context"
	"fmt"
	"math"

	"cosched/internal/abort"
	"cosched/internal/degradation"
	"cosched/internal/job"
)

// Result is the provably optimal schedule — or, when a SolveContext was
// cancelled mid-enumeration, the best partition seen so far, flagged
// Degraded.
type Result struct {
	Groups [][]job.ProcID
	Cost   float64
	// Partitions counts the complete partitions evaluated (after
	// branch-and-bound pruning).
	Partitions int64
	// Degraded reports that the enumeration stopped early (cancelled or
	// expired context); Aborted carries the reason. The Groups are then
	// the best partition found before the stop — feasible, not proven
	// optimal.
	Degraded bool
	Aborted  abort.Reason
}

// MaxProcs guards against accidentally launching an astronomically large
// enumeration.
const MaxProcs = 24

// abortCheckEvery is the tryNode interval between context polls: the
// poll is two orders of magnitude cheaper than a node evaluation, but
// keeping it off the per-node path costs nothing. Power of two (masked).
const abortCheckEvery = 512

type searcher struct {
	cost    *degradation.Cost
	batch   *job.Batch
	n, u    int
	used    []bool
	procPar []int // dense parallel-job index per process, -1 for serial
	jobMax  []float64
	dist    float64
	cur     [][]job.ProcID
	best    float64
	bestG   [][]job.ProcID
	parts   int64

	// Cancellation state: done is polled every abortCheckEvery tryNode
	// calls; once aborted is set the recursion unwinds without further
	// node evaluations.
	ctx     context.Context
	done    <-chan struct{}
	calls   int64
	aborted abort.Reason
}

// Solve exhaustively finds the minimum-objective partition.
func Solve(c *degradation.Cost) (*Result, error) {
	return SolveContext(context.Background(), c)
}

// SolveContext is Solve with cancellation: a cancelled or expired
// context stops the enumeration promptly and returns the best partition
// seen so far as a degraded Result (falling back to the trivial
// sequential partition when the stop landed before any complete one).
func SolveContext(ctx context.Context, c *degradation.Cost) (*Result, error) {
	b := c.Batch
	n := b.NumProcs()
	if n > MaxProcs {
		return nil, fmt.Errorf("bruteforce: %d processes exceed the enumeration guard (%d)", n, MaxProcs)
	}
	s := &searcher{
		cost:  c,
		batch: b,
		n:     n,
		u:     b.Cores,
		used:  make([]bool, n+1),
		best:  math.Inf(1),
	}
	if ctx != nil {
		s.ctx = ctx
		s.done = ctx.Done()
		// An already-done context aborts before the first node.
		select {
		case <-s.done:
			s.aborted = abort.FromContext(ctx)
		default:
		}
	}
	s.procPar = make([]int, n)
	for i := range s.procPar {
		s.procPar[i] = -1
	}
	par := b.ParallelJobs()
	for idx, jid := range par {
		for _, p := range b.Jobs[jid].Procs {
			s.procPar[int(p)-1] = idx
		}
	}
	s.jobMax = make([]float64, len(par))
	if s.aborted == abort.None {
		s.recurse()
	}
	if math.IsInf(s.best, 1) {
		if s.aborted != abort.None {
			groups := sequentialGroups(b)
			return &Result{
				Groups: groups, Cost: c.PartitionCost(groups),
				Partitions: s.parts, Degraded: true, Aborted: s.aborted,
			}, nil
		}
		return nil, fmt.Errorf("bruteforce: no feasible partition")
	}
	res := &Result{Groups: s.bestG, Cost: s.best, Partitions: s.parts}
	if s.aborted != abort.None {
		res.Degraded = true
		res.Aborted = s.aborted
	}
	return res, nil
}

// sequentialGroups is the trivial u-chunk partition of processes 1..n,
// the fallback an aborted enumeration can always return.
func sequentialGroups(b *job.Batch) [][]job.ProcID {
	n, u := b.NumProcs(), b.Cores
	groups := make([][]job.ProcID, 0, n/u)
	for p := 1; p <= n; p += u {
		g := make([]job.ProcID, 0, u)
		for q := p; q < p+u && q <= n; q++ {
			g = append(g, job.ProcID(q))
		}
		groups = append(groups, g)
	}
	return groups
}

func (s *searcher) recurse() {
	if s.aborted != abort.None {
		return
	}
	leader := 0
	for p := 1; p <= s.n; p++ {
		if !s.used[p] {
			leader = p
			break
		}
	}
	if leader == 0 {
		s.parts++
		if s.dist < s.best {
			s.best = s.dist
			s.bestG = make([][]job.ProcID, len(s.cur))
			for i, g := range s.cur {
				s.bestG[i] = append([]job.ProcID(nil), g...)
			}
		}
		return
	}
	avail := make([]int, 0, s.n-leader)
	for p := leader + 1; p <= s.n; p++ {
		if !s.used[p] {
			avail = append(avail, p)
		}
	}
	r := s.u - 1
	if len(avail) < r {
		return
	}
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	node := make([]job.ProcID, s.u)
	node[0] = job.ProcID(leader)
	for {
		for i, ai := range idx {
			node[i+1] = job.ProcID(avail[ai])
		}
		s.tryNode(node)
		i := r - 1
		for i >= 0 && idx[i] == len(avail)-r+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// tryNode commits one machine group, recurses and undoes the commit.
// Increments are non-negative, so sub-paths already at or above the
// incumbent are pruned.
func (s *searcher) tryNode(node []job.ProcID) {
	if s.aborted != abort.None {
		return
	}
	s.calls++
	if s.done != nil && s.calls&(abortCheckEvery-1) == 0 {
		select {
		case <-s.done:
			s.aborted = abort.FromContext(s.ctx)
			return
		default:
		}
	}
	type undo struct {
		pi  int
		old float64
	}
	var undos []undo
	savedDist := s.dist
	var buf [16]float64
	costs := s.cost.NodeCosts(buf[:0], node)
	for i, p := range node {
		s.used[p] = true
		d := costs[i]
		pi := s.procPar[int(p)-1]
		if s.cost.Mode == degradation.ModeSE || pi < 0 {
			s.dist += d
			continue
		}
		if d > s.jobMax[pi] {
			undos = append(undos, undo{pi: pi, old: s.jobMax[pi]})
			s.dist += d - s.jobMax[pi]
			s.jobMax[pi] = d
		}
	}
	if s.dist < s.best {
		s.cur = append(s.cur, append([]job.ProcID(nil), node...))
		s.recurse()
		s.cur = s.cur[:len(s.cur)-1]
	}
	for i := len(undos) - 1; i >= 0; i-- {
		s.jobMax[undos[i].pi] = undos[i].old
	}
	s.dist = savedDist
	for _, p := range node {
		s.used[p] = false
	}
}
